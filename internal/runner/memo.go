package runner

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"time"

	"exocore/internal/panics"
)

func defaultWorkers() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	return n
}

// memo is a concurrency-safe compute-once cache ("singleflight" + store):
// the first caller of a key computes the value while later callers — even
// concurrent ones — block on the same entry and share the result. Errors
// are cached too: a failed stage fails identically on every lookup
// instead of being retried.
type memo[V any] struct {
	mu sync.Mutex
	m  map[string]*memoEntry[V]
}

type memoEntry[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// get returns (value, cacheHit, computeWall, err). cacheHit is true when
// this caller did not run compute — including when it blocked on another
// goroutine's in-flight computation, since the work was still shared.
func (t *memo[V]) get(key string, compute func() (V, error)) (V, bool, time.Duration, error) {
	return t.getCtx(context.Background(), key, func(context.Context) (V, error) {
		return compute()
	})
}

// getCtx is get with cancellation: waiters blocked on another caller's
// in-flight computation unblock when their own ctx is done, and a
// computation that fails with the winner's cancellation (or deadline) is
// evicted instead of cached, so the error cannot poison the memo for
// future callers — essential for a long-lived serving engine where one
// disconnected client must not wedge a (bench, core) key forever. A
// computation that panics fails with a *panics.Error — its waiters get
// the error instead of blocking forever — and is evicted the same way.
func (t *memo[V]) getCtx(ctx context.Context, key string, compute func(context.Context) (V, error)) (V, bool, time.Duration, error) {
	t.mu.Lock()
	if t.m == nil {
		t.m = make(map[string]*memoEntry[V])
	}
	if ent, ok := t.m[key]; ok {
		t.mu.Unlock()
		select {
		case <-ent.done:
			return ent.val, true, 0, ent.err
		case <-ctx.Done():
			var zero V
			return zero, true, 0, ctx.Err()
		}
	}
	ent := &memoEntry[V]{done: make(chan struct{})}
	t.m[key] = ent
	t.mu.Unlock()

	start := time.Now()
	func() {
		defer panics.Recover(&ent.err)
		ent.val, ent.err = compute(ctx)
	}()
	if ent.err != nil && (errors.Is(ent.err, context.Canceled) || errors.Is(ent.err, context.DeadlineExceeded) ||
		panics.Is(ent.err)) {
		t.mu.Lock()
		if t.m[key] == ent {
			delete(t.m, key)
		}
		t.mu.Unlock()
	}
	close(ent.done)
	return ent.val, false, time.Since(start), ent.err
}

// len reports the number of cached entries (for tests).
func (t *memo[V]) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}
