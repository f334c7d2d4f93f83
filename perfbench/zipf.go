package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"exocore/internal/bsa"
	"exocore/internal/cores"
	"exocore/internal/report"
	"exocore/internal/runner"
	"exocore/internal/serve"
	"exocore/internal/workloads"
)

// zipfKey is one /v1/evaluate request serve-zipf can send, with the
// (workload, core) cell whose scheduling context it needs.
type zipfKey struct {
	req  serve.EvalRequest
	cell int
	// The request resolved, for computing the expected answer.
	w    *workloads.Workload
	core cores.Config
	bsas []string
}

// zipfKeys enumerates every request: workload × core × BSA subset ×
// scheduler, in a fixed order.
func zipfKeys() []zipfKey {
	reg := bsa.Default()
	var keys []zipfKey
	for wi, w := range workloads.All() {
		for ci, c := range cores.Configs {
			for mask := 0; mask < 1<<reg.Len(); mask++ {
				names := reg.SubsetNames(mask)
				spec := "none"
				if mask != 0 {
					spec = strings.Join(names, ",")
				}
				for _, s := range []string{"oracle", "amdahl"} {
					keys = append(keys, zipfKey{
						req:  serve.EvalRequest{Bench: w.Name, Core: c.Name, BSAs: spec, Sched: s},
						cell: wi*len(cores.Configs) + ci,
						w:    w, core: c, bsas: names,
					})
				}
			}
		}
	}
	return keys
}

// zipfInputs is everything serve-zipf sends, derived from the seed: the
// keys in popularity order (a seeded shuffle of zipfKeys) and, for each
// timed request, its popularity rank drawn Zipf(zipfS).
type zipfInputs struct {
	keys   []zipfKey // most popular first
	byRank [][]byte  // request bodies, most popular first
	ranks  []int     // timed requests' ranks, in send order
}

func makeZipfInputs(seed int64, n int) (*zipfInputs, error) {
	keys := zipfKeys()
	rng := rand.New(rand.NewSource(seed))
	in := &zipfInputs{keys: make([]zipfKey, len(keys)), byRank: make([][]byte, len(keys))}
	for rank, ki := range rng.Perm(len(keys)) {
		b, err := json.Marshal(keys[ki].req)
		if err != nil {
			return nil, err
		}
		in.keys[rank], in.byRank[rank] = keys[ki], b
	}
	z := rand.NewZipf(rng, zipfS, 1, uint64(len(keys)-1))
	in.ranks = make([]int, n)
	for i := range in.ranks {
		in.ranks[i] = int(z.Uint64())
	}
	return in, nil
}

// daemon is one in-process serve.Server on a loopback listener.
type daemon struct {
	eng  *runner.Engine
	srv  *serve.Server
	hs   *http.Server
	base string
	done chan error
}

func startDaemon(addr string, cfg serve.Config, wrap func(http.Handler) http.Handler) (*daemon, error) {
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	var h http.Handler = srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	d := &daemon{eng: cfg.Engine, srv: srv, hs: &http.Server{Handler: h},
		base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { d.done <- d.hs.Serve(ln) }()
	return d, nil
}

// addr returns the daemon's listen address (host:port).
func (d *daemon) addr() string { return strings.TrimPrefix(d.base, "http://") }

// stop drains the HTTP server, then the evaluation server, and waits
// for the serving goroutine to return.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := d.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	if serr := <-d.done; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	return err
}

func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
	}}
}

// post sends body to url and returns the status and response body.
func post(ctx context.Context, c *http.Client, url string, body []byte, hdr http.Header) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header[k] = v
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// evalChecker holds serve-zipf's output check: status 200, a document
// of this build's schema with results, and one body per key.
type evalChecker struct {
	mu     sync.Mutex
	bodies map[int]string // rank → body digest
}

func (c *evalChecker) check(rank, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", status, body)
	}
	doc, err := report.Decode(bytes.NewReader(body))
	if err != nil {
		return err
	}
	if len(doc.Results) == 0 {
		return errors.New("document has no results")
	}
	d := digest(body)
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.bodies[rank]; ok && prev != d {
		return fmt.Errorf("rank %d: body digest %s differs from the first answer %s", rank, d[:12], prev[:12])
	}
	c.bodies[rank] = d
	return nil
}

// seqHeader carries a timed request's index to the traced handler.
const seqHeader = "X-Perfbench-Seq"

// handlerSpan is one traced request as the server's handler saw it.
type handlerSpan struct {
	seq         int
	entry, exit time.Time
}

type handlerTrace struct {
	mu    sync.Mutex
	spans []handlerSpan
}

func (t *handlerTrace) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		entry := time.Now()
		next.ServeHTTP(w, r)
		seq, err := strconv.Atoi(r.Header.Get(seqHeader))
		if err != nil {
			return // set-up traffic
		}
		t.mu.Lock()
		t.spans = append(t.spans, handlerSpan{seq: seq, entry: entry, exit: time.Now()})
		t.mu.Unlock()
	})
}

// runZipf is serve-zipf: an open loop at a fixed offered rate against
// an in-process daemon, keys drawn Zipf from all 13,312 requests.
func runZipf(ctx context.Context, cfg config) (*outcome, error) {
	sc := cfg.scale
	n := int(sc.rate * cfg.seconds.Seconds())
	in, err := makeZipfInputs(cfg.seed, max(n, 1))
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	chk := &evalChecker{bodies: map[int]string{}}
	var ht *handlerTrace
	var wrap func(http.Handler) http.Handler
	if cfg.trace {
		ht = &handlerTrace{}
		wrap = ht.wrap
	}

	// Set-up: daemon start plus a warm-up of the most popular keys over
	// the same connections, done sc.setups times; the last daemon serves
	// the timed phase.
	var d *daemon
	var client *http.Client
	var setups []float64
	for i := 0; i < sc.setups; i++ {
		if d != nil {
			client.CloseIdleConnections()
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		runtime.GC() // the previous set-up's daemon is garbage now
		t0 := time.Now()
		eng := runner.New(runner.Options{MaxDyn: sc.maxDyn, Workers: cfg.workers})
		d, err = startDaemon("127.0.0.1:0", serve.Config{Engine: eng}, wrap)
		if err != nil {
			return nil, err
		}
		client = newClient(cfg.workers)
		warmErrs := make([]error, sc.warmKeys)
		var wg sync.WaitGroup
		for w := 0; w < cfg.workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for rank := w; rank < sc.warmKeys; rank += cfg.workers {
					status, body, err := post(ctx, client, d.base+"/v1/evaluate", in.byRank[rank], nil)
					if err == nil {
						err = chk.check(rank, status, cfg.output(body))
					}
					warmErrs[rank] = err
				}
			}()
		}
		wg.Wait()
		for rank, err := range warmErrs {
			out.check(fmt.Sprintf("warm-up rank %d", rank), err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	reg := d.eng.Registry()
	coalesced0, requests0, rejected0 := reg.Counter("serve.coalesced").Value(),
		reg.Counter("serve.requests").Value(), reg.Counter("serve.rejected").Value()

	// Timed phase: request i is due at i/rate. A dispatcher hands each
	// due request to one of cfg.workers senders (one connection each);
	// when both are busy the hand-off waits, and that lateness counts in
	// the latency, which is timed from the due time.
	lat := make([]time.Duration, n)
	lag := make([]time.Duration, n)
	errs := make([]error, n)
	due := make([]time.Time, n)
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < cfg.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				hdr := http.Header{seqHeader: {strconv.Itoa(i)}}
				status, body, err := post(ctx, client, d.base+"/v1/evaluate", in.byRank[in.ranks[i]], hdr)
				lat[i] = time.Since(due[i])
				if err == nil {
					err = chk.check(in.ranks[i], status, cfg.output(body))
				}
				errs[i] = err
			}
		}()
	}
	c0 := cpuTime()
	start := time.Now()
	for i := 0; i < n; i++ {
		due[i] = start.Add(time.Duration(float64(i) / sc.rate * float64(time.Second)))
		if wait := time.Until(due[i]); wait > 0 {
			time.Sleep(wait)
		}
		jobs <- i
		lag[i] = time.Since(due[i])
	}
	close(jobs)
	wg.Wait()
	elapsed := time.Since(start)
	cpu := cpuTime() - c0
	// Stopping waits for every handler to return, so the traced
	// handler's spans are complete afterwards.
	client.CloseIdleConnections()
	if err := d.stop(); err != nil {
		return nil, err
	}

	// Every distinct answer must also equal the document the serving
	// layer's own builder renders for that request on the same engine
	// (warm by now, so this is cheap).
	for _, rank := range sortedKeys(chk.bodies) {
		k := in.keys[rank]
		doc, err := serve.EvaluateDocument(ctx, d.eng, "exocored", []*workloads.Workload{k.w}, k.core, k.bsas, k.req.Sched, nil)
		var buf bytes.Buffer
		if err == nil {
			err = doc.Write(&buf)
		}
		if err == nil && digest(buf.Bytes()) != chk.bodies[rank] {
			err = fmt.Errorf("answer differs from serve.EvaluateDocument's")
		}
		out.check(fmt.Sprintf("reference rank %d", rank), err)
	}

	// Classify each timed request by what the server had seen before it
	// was sent: the first request for a (workload, core) cell pays a
	// cold context build; a repeated key is a warm cache hit; a new key
	// on a warm cell needs one fresh evaluation.
	seenKey, seenCell := map[int]bool{}, map[int]bool{}
	for rank := 0; rank < sc.warmKeys; rank++ {
		seenKey[rank], seenCell[in.keys[rank].cell] = true, true
	}
	var lats, lags, coldLats, warmLats, evalLats []float64
	good := 0
	for i := 0; i < n; i++ {
		l, rank := ms(lat[i]), in.ranks[i]
		lats = append(lats, l)
		lags = append(lags, ms(lag[i]))
		switch {
		case !seenCell[in.keys[rank].cell]:
			coldLats = append(coldLats, l)
		case seenKey[rank]:
			warmLats = append(warmLats, l)
		default:
			evalLats = append(evalLats, l)
		}
		seenKey[rank], seenCell[in.keys[rank].cell] = true, true
		if errs[i] == nil && lat[i] <= zipfLimit {
			good++
		}
		out.check(fmt.Sprintf("request %d", i), errs[i])
	}
	out.metrics["setup_s"] = median(setups)
	out.metrics["cold_ms"] = median(coldLats)
	out.metrics["warm_ms"] = median(warmLats)
	out.metrics["cpu_s"] = cpu.Seconds()
	out.extra["p50_ms"] = percentile(lats, 0.50)
	out.extra["p99_ms"] = percentile(lats, 0.99)
	out.extra["cold_requests"] = float64(len(coldLats))
	out.extra["warm_requests"] = float64(len(warmLats))
	out.extra["new_key_requests"] = float64(len(evalLats))
	out.extra["new_key_p50_ms"] = median(evalLats)
	out.extra["samples"] = float64(n)
	out.extra["offered_rps"] = sc.rate
	out.extra["latency_limit_ms"] = ms(zipfLimit)
	out.extra["goodput_rps"] = float64(good) / cfg.seconds.Seconds()
	out.extra["timed_s"] = elapsed.Seconds()
	out.extra["generator_lag_p99_ms"] = percentile(lags, 0.99)
	out.extra["generator_lag_max_ms"] = percentile(lags, 1)
	out.extra["distinct_keys"] = float64(len(chk.bodies))
	out.extra["zipf_s"] = zipfS
	out.extra["connections"] = float64(cfg.workers)

	if cfg.trace {
		out.metrics = zipfLayerMetrics(ht, due, d.eng)
		req := reg.Counter("serve.requests").Value() - requests0
		if req > 0 {
			out.metrics["serve.coalesced_share"] = float64(reg.Counter("serve.coalesced").Value()-coalesced0) / float64(req)
		}
		out.metrics["serve.rejected"] = float64(reg.Counter("serve.rejected").Value() - rejected0)
	}
	return out, nil
}

// zipfLayerMetrics derives serve-zipf's per-layer metrics from the
// wrapped handler's spans and the engine's public counters.
func zipfLayerMetrics(ht *handlerTrace, due []time.Time, eng *runner.Engine) map[string]float64 {
	var handler, wait []float64
	ht.mu.Lock()
	for _, s := range ht.spans {
		handler = append(handler, ms(s.exit.Sub(s.entry)))
		wait = append(wait, ms(s.entry.Sub(due[s.seq])))
	}
	ht.mu.Unlock()
	m := engineLayerMetrics(eng)
	m["serve.handler_p50_ms"] = percentile(handler, 0.50)
	m["serve.handler_p99_ms"] = percentile(handler, 0.99)
	m["serve.wait_p99_ms"] = percentile(wait, 0.99)
	if ec := eng.Metrics().EvalCache; ec != nil {
		if n := ec.Hits + ec.Misses; n > 0 {
			m["exocore.unit_hit_ratio"] = float64(ec.Hits) / float64(n)
		}
		m["exocore.shared_hits"] = float64(ec.SharedHits)
		m["exocore.prefix_entries"] = float64(ec.PrefixEntries)
	}
	return m
}
