package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"exocore/internal/exocore"
	"exocore/internal/fabric"
	"exocore/internal/obs"
	"exocore/internal/report"
	"exocore/internal/runner"
	"exocore/internal/serve"
	"exocore/internal/store"
)

// fabricReplicas is fabric-store's replica count.
const fabricReplicas = 2

// warmRestarts is how many times each fabric-store round restarts the
// replicas on their stores and sweeps again.
const warmRestarts = 5

// timedPersist wraps a replica's store as the engine's exocore.Persist
// and times every Get and Put.
type timedPersist struct {
	st               *store.Store
	gets, hits, puts atomic.Int64
	getNS, putNS     atomic.Int64
}

func (p *timedPersist) Get(key []byte) ([]byte, bool) {
	t := time.Now()
	v, ok := p.st.Get(key)
	p.getNS.Add(int64(time.Since(t)))
	p.gets.Add(1)
	if ok {
		p.hits.Add(1)
	}
	return v, ok
}

func (p *timedPersist) Put(key, val []byte) {
	t := time.Now()
	p.st.Put(key, val)
	p.putNS.Add(int64(time.Since(t)))
	p.puts.Add(1)
}

// shardTrace wraps the replicas' handlers: every shard request's time
// in the handler, each replica's busy time, and the shard bodies.
type shardTrace struct {
	mu     sync.Mutex
	lat    []float64
	busy   [fabricReplicas]time.Duration
	bodies [][]byte
}

// teeWriter keeps a copy of everything a handler writes.
type teeWriter struct {
	http.ResponseWriter
	buf    bytes.Buffer
	status int
}

func (w *teeWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *teeWriter) Write(b []byte) (int, error) {
	w.buf.Write(b)
	return w.ResponseWriter.Write(b)
}

func (t *shardTrace) wrap(replica int) func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/v1/sweep" {
				next.ServeHTTP(w, r)
				return
			}
			tw := &teeWriter{ResponseWriter: w, status: http.StatusOK}
			start := time.Now()
			next.ServeHTTP(tw, r)
			d := time.Since(start)
			t.mu.Lock()
			defer t.mu.Unlock()
			t.lat = append(t.lat, ms(d))
			t.busy[replica] += d
			if tw.status == http.StatusOK {
				t.bodies = append(t.bodies, tw.buf.Bytes())
			}
		})
	}
}

// fabricTrace is one phase's tracing state.
type fabricTrace struct {
	persists [fabricReplicas]*timedPersist
	shards   *shardTrace
	open     time.Duration // store.Open, summed over the replicas
}

// replicaURL names replica i to the coordinator. The ring places cells
// by hashing replica URLs, so with listen addresses in them placement
// would change with every run's ports. Fixed names make placement a
// constant of the benchmark; the coordinator's dialer maps each name to
// the replica's listener.
func replicaURL(i int) string { return fmt.Sprintf("http://replica%d", i) }

// replicaClient is the coordinator's HTTP client, dialing replica i's
// name at addrs[i].
func replicaClient(conns int, addrs []string) *http.Client {
	byHost := map[string]string{}
	for i, a := range addrs {
		byHost[strings.TrimPrefix(replicaURL(i), "http://")+":80"] = a
	}
	var d net.Dialer
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			real, ok := byHost[addr]
			if !ok {
				return nil, fmt.Errorf("no replica named %s", addr)
			}
			return d.DialContext(ctx, network, real)
		},
	}}
}

// fabricSet is one running fabric: replicas, each over its own store,
// and a coordinator in front of them, all in-process on loopback.
type fabricSet struct {
	reps   []*daemon
	reg    *obs.Registry
	client *http.Client
	coord  *http.Server
	base   string
	done   chan error
}

// startFabric starts the replicas on addrs (host:port; port 0 picks
// one) over the stores in dirs, and a coordinator over them.
func startFabric(cfg config, addrs, dirs []string, tr *fabricTrace) (*fabricSet, error) {
	f := &fabricSet{reg: obs.NewRegistry()}
	var urls []string
	for i := range addrs {
		t := time.Now()
		st, err := store.Open(dirs[i], store.Options{})
		if tr != nil {
			tr.open += time.Since(t)
		}
		if err != nil {
			f.stop()
			return nil, err
		}
		var persist exocore.Persist = st
		var wrap func(http.Handler) http.Handler
		if tr != nil {
			tr.persists[i] = &timedPersist{st: st}
			persist = tr.persists[i]
			wrap = tr.shards.wrap(i)
		}
		eng := runner.New(runner.Options{MaxDyn: cfg.scale.maxDyn, Workers: 1, Persist: persist})
		d, err := startDaemon(addrs[i], serve.Config{Engine: eng, Role: "replica", Store: st}, wrap)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.reps = append(f.reps, d)
		urls = append(urls, replicaURL(i))
	}
	f.client = replicaClient(cfg.workers, f.addrs())
	coord, err := fabric.New(fabric.Config{Replicas: urls, Client: f.client,
		HedgeAfter: 10 * time.Second, Reg: f.reg})
	if err != nil {
		f.stop()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.stop()
		return nil, err
	}
	f.coord = &http.Server{Handler: coord.Handler()}
	f.base = "http://" + ln.Addr().String()
	f.done = make(chan error, 1)
	go func() { f.done <- f.coord.Serve(ln) }()
	return f, nil
}

func (f *fabricSet) addrs() []string {
	var out []string
	for _, d := range f.reps {
		out = append(out, d.addr())
	}
	return out
}

// stop shuts the coordinator and then every replica down and waits
// for their serving goroutines.
func (f *fabricSet) stop() error {
	var errs []error
	if f.coord != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		errs = append(errs, f.coord.Shutdown(ctx))
		cancel()
		if err := <-f.done; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if f.client != nil {
		f.client.CloseIdleConnections()
	}
	for _, d := range f.reps {
		errs = append(errs, d.stop())
	}
	return errors.Join(errs...)
}

// sweep posts the coordinated sweep and returns its wall time and body.
func (f *fabricSet) sweep(ctx context.Context, c *http.Client, req []byte) (time.Duration, []byte, error) {
	t := time.Now()
	status, body, err := post(ctx, c, f.base+"/v1/sweep", req, nil)
	wall := time.Since(t)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d: %.200s", status, body)
	}
	return wall, body, err
}

// runFabric is fabric-store. Each round starts the fabric over empty
// stores and sweeps (cold), stops it, restarts the replicas on the same
// stores and the same listen addresses, as restarted daemons would come
// back, and sweeps again (warm). Both answers must equal a single
// daemon's bytes for the same request.
func runFabric(ctx context.Context, cfg config) (*outcome, error) {
	req, err := json.Marshal(serve.SweepRequest{Bench: cfg.scale.fabricBench})
	if err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(cfg.dir, "fabric-")
	if err != nil {
		return nil, err
	}
	defer func() {
		os.RemoveAll(tmp)
		syscall.Sync() // so that the next run does not pay for this one's deletes
	}()
	var addrs []string
	for i := 0; i < fabricReplicas; i++ {
		addrs = append(addrs, "127.0.0.1:0")
	}
	client := newClient(1)
	defer client.CloseIdleConnections()

	out := newOutcome()
	var setup, cold, warm, cpu []float64
	var bodies [][]byte
	var layers []map[string]float64
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < cfg.seconds; round++ {
		// Each round writes fresh store directories; the old ones are
		// removed when the run ends, not between rounds.
		var dirs []string
		for i := 0; i < fabricReplicas; i++ {
			dirs = append(dirs, filepath.Join(tmp, fmt.Sprintf("round%d-store%d", round, i)))
		}
		// Write back the previous round's store traffic now, so that
		// the kernel's writeback does not land inside this round's sweeps.
		syscall.Sync()
		// Phase 0 is cold; phases 1.. restart on the stores so far. The
		// traced run traces the cold phase and the first restart.
		var trs [1 + warmRestarts]*fabricTrace
		if cfg.trace {
			trs[0] = &fabricTrace{shards: &shardTrace{}}
			trs[1] = &fabricTrace{shards: &shardTrace{}}
		}
		var regs [2]*obs.Registry // the traced phases' coordinator counters
		var roundCPU time.Duration
		for phase, tr := range trs {
			// The previous phase's replicas are garbage now; collecting
			// them first keeps one phase's heap from adding to the next
			// one's in peak_rss_mib.
			runtime.GC()
			t := time.Now()
			f, err := startFabric(cfg, addrs, dirs, tr)
			if err != nil {
				return nil, fmt.Errorf("start fabric: %w", err)
			}
			if phase > 0 {
				setup = append(setup, time.Since(t).Seconds())
			}
			addrs = f.addrs()
			c0 := cpuTime()
			wall, body, err := f.sweep(ctx, client, req)
			roundCPU += cpuTime() - c0
			if serr := f.stop(); serr != nil && err == nil {
				err = serr
			}
			if err != nil {
				return nil, fmt.Errorf("sweep: %w", err)
			}
			if phase < len(regs) {
				regs[phase] = f.reg
			}
			bodies = append(bodies, cfg.output(body))
			if phase == 0 {
				cold = append(cold, ms(wall))
			} else {
				warm = append(warm, ms(wall))
			}
		}
		cpu = append(cpu, roundCPU.Seconds())
		if cfg.trace {
			m, err := fabricLayerMetrics(trs[0], trs[1], regs, len(bodies[len(bodies)-1]))
			if err != nil {
				out.check("shard merge", err)
			}
			layers = append(layers, m)
		}
	}

	// The reference: one single daemon, no store, same request.
	runtime.GC()
	refEng := runner.New(runner.Options{MaxDyn: cfg.scale.maxDyn, Workers: cfg.workers})
	ref, err := serve.New(serve.Config{Engine: refEng})
	if err != nil {
		return nil, err
	}
	rec := httptest.NewRecorder()
	ref.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sweep", bytes.NewReader(req)))
	if err := ref.Shutdown(ctx); err != nil {
		return nil, err
	}
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("reference sweep: status %d: %.200s", rec.Code, rec.Body.Bytes())
	}
	want := rec.Body.Bytes()
	if _, err := report.Decode(bytes.NewReader(want)); err != nil {
		return nil, fmt.Errorf("reference sweep: %w", err)
	}
	for i, b := range bodies {
		out.check(fmt.Sprintf("round %d phase %d sweep", i/(1+warmRestarts), i%(1+warmRestarts)), equalBytes(b, want))
	}

	out.extra["rounds"] = float64(len(cold))
	out.extra["replicas"] = fabricReplicas
	out.extra["max_dyn"] = float64(cfg.scale.maxDyn)
	out.extra["answer_bytes"] = float64(len(want))
	if cfg.trace {
		out.metrics = medianMetrics(layers)
		return out, nil
	}
	out.metrics["setup_s"] = median(setup)
	out.metrics["cold_ms"] = median(cold)
	out.metrics["warm_ms"] = median(warm)
	out.metrics["cpu_s"] = median(cpu)
	return out, nil
}

// fabricLayerMetrics derives one round's per-layer metrics: shard
// timings from the wrapped replica handlers (both phases), coordinator
// counters, store puts from the cold phase and gets from the warm one,
// and report.Merge replayed over the cold phase's shard bodies.
func fabricLayerMetrics(coldTr, warmTr *fabricTrace, regs [2]*obs.Registry, answerBytes int) (map[string]float64, error) {
	m := map[string]float64{}
	lat := append(append([]float64(nil), coldTr.shards.lat...), warmTr.shards.lat...)
	m["fabric.shard_p50_ms"] = percentile(lat, 0.50)
	m["fabric.shard_p99_ms"] = percentile(lat, 0.99)
	for _, name := range []string{"shards", "steals", "retries"} {
		m["fabric."+name] = float64(regs[0].Counter("fabric."+name).Value() + regs[1].Counter("fabric."+name).Value())
	}
	var busy [fabricReplicas]time.Duration
	var total, most time.Duration
	for i := range busy {
		busy[i] = coldTr.shards.busy[i] + warmTr.shards.busy[i]
		total += busy[i]
		most = max(most, busy[i])
	}
	if total > 0 {
		m["fabric.replica_busy_skew"] = float64(most) / (float64(total) / fabricReplicas)
	}

	var puts, putNS, gets, getNS, hits int64
	for i := 0; i < fabricReplicas; i++ {
		puts += coldTr.persists[i].puts.Load()
		putNS += coldTr.persists[i].putNS.Load()
		gets += warmTr.persists[i].gets.Load()
		getNS += warmTr.persists[i].getNS.Load()
		hits += warmTr.persists[i].hits.Load()
	}
	m["store.puts"] = float64(puts)
	m["store.put_ms"] = float64(putNS) / 1e6
	m["store.gets"] = float64(gets)
	m["store.get_ms"] = float64(getNS) / 1e6
	if puts > 0 {
		m["store.put_us"] = float64(putNS) / float64(puts) / 1e3
	}
	if gets > 0 {
		m["store.get_us"] = float64(getNS) / float64(gets) / 1e3
		m["store.hit_ratio"] = float64(hits) / float64(gets)
	}
	m["store.open_ms"] = ms(warmTr.open)

	t := time.Now()
	merged, err := report.Merge(coldTr.shards.bodies...)
	m["report.merge_ms"] = ms(time.Since(t))
	m["report.bytes"] = float64(answerBytes)
	if err == nil && len(merged) == 0 {
		err = errors.New("merge produced no document")
	}
	return m, err
}
