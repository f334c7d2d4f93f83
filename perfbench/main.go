// Command perfbench is the repository's benchmark. It drives the
// evaluation stack only through its public packages (dse, runner,
// sched, exocore, tdg, workloads, trace, report, serve, fabric, store),
// checks every output it gets back, and prints each metric by name and
// unit, ending with one JSON result line.
//
//	perfbench --workload sweep-cold --seed 1 --seconds 20 --trace 0
//	perfbench compare A.jsonl B.jsonl
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same
// workload with spans and counters recorded around the public calls of
// each layer and reports the per-layer metrics instead. Every run also
// appends a record (metrics, sample counts and a machine fingerprint) to
// the records file, which compare mode reads. README.md explains why
// each workload exists and which end-to-end metric each layer metric
// should move.
package main

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// Workload names.
const (
	wlSweep  = "sweep-cold"
	wlZipf   = "serve-zipf"
	wlFabric = "fabric-store"
)

var workloadNames = []string{wlSweep, wlZipf, wlFabric}

// metricDef names one reported metric; BENCHMARK.json lists the same
// names and units (TestBenchmarkJSONMatches keeps them in step).
type metricDef struct {
	name, unit string
}

// endToEnd is what a user of each workload sees. Every workload reports
// all of them; README.md gives each one's meaning per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cold_ms", "ms"},
	{"warm_ms", "ms"},
	{"cpu_s", "s"},
	{"peak_rss_mib", "MiB"},
}

// perLayer is reported by traced runs. A layer a workload does not run,
// or cannot be observed from outside on that workload, reads 0.
var perLayer = []metricDef{
	{"workloads.trace_ms", "ms"},
	{"workloads.ns_per_inst", "ns"},
	{"tdg.build_ms", "ms"},
	{"tdg.ns_per_inst", "ns"},
	{"bsa.analyze_ms", "ms"},
	{"exocore.baseline_ms", "ms"},
	{"exocore.baseline_ns_per_inst", "ns"},
	{"exocore.solo_ms", "ms"},
	{"exocore.solos", "count"},
	{"exocore.solo_ns_per_inst", "ns"},
	{"exocore.unit_hit_ratio", "ratio"},
	{"exocore.shared_hits", "count"},
	{"exocore.prefix_entries", "count"},
	{"sched.select_ms", "ms"},
	{"sched.evaluate_ms", "ms"},
	{"sched.evaluations", "count"},
	{"runner.eval_hit_ratio", "ratio"},
	{"runner.sched_misses", "count"},
	{"report.encode_ms", "ms"},
	{"report.bytes", "bytes"},
	{"report.merge_ms", "ms"},
	{"serve.handler_p50_ms", "ms"},
	{"serve.handler_p99_ms", "ms"},
	{"serve.wait_p99_ms", "ms"},
	{"serve.coalesced_share", "ratio"},
	{"serve.rejected", "count"},
	{"fabric.shard_p50_ms", "ms"},
	{"fabric.shard_p99_ms", "ms"},
	{"fabric.shards", "count"},
	{"fabric.steals", "count"},
	{"fabric.retries", "count"},
	{"fabric.replica_busy_skew", "ratio"},
	{"store.put_ms", "ms"},
	{"store.put_us", "us"},
	{"store.puts", "count"},
	{"store.get_ms", "ms"},
	{"store.get_us", "us"},
	{"store.gets", "count"},
	{"store.hit_ratio", "ratio"},
	{"store.open_ms", "ms"},
	{"replay.overhead_ms", "ms"},
	{"replay.closure", "ratio"},
}

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	scale    scale
	workers  int
	// dir holds the run's scratch files (stores, spans).
	dir string
	// corrupt, when set, rewrites every output before it is checked.
	// Tests use it to prove that the checks catch a wrong answer.
	corrupt func([]byte) []byte
	// dropLayer, when set, leaves that layer's spans out of the replay's
	// trace. Tests use it to prove that the closure check fires.
	dropLayer string
}

// output returns b as the benchmark sees it: corrupted under test.
func (c *config) output(b []byte) []byte {
	if c.corrupt == nil {
		return b
	}
	return c.corrupt(append([]byte(nil), b...))
}

// scale sizes the workloads. fullScale is the benchmark; shortScale is
// a seconds-long version of the same code paths for the self-tests.
type scale struct {
	maxDyn int
	// sweepBenches restricts sweep-cold (nil = every registered workload).
	sweepBenches []string
	// fabricBench is fabric-store's /v1/sweep bench spec.
	fabricBench string
	// rate is serve-zipf's offered load (requests per second).
	rate float64
	// warmKeys is how many of the most popular serve-zipf keys are
	// requested during set-up.
	warmKeys int
	// setups is how many times serve-zipf sets up (the median is reported).
	setups int
	// digest names the pinned sweep-cold results digest.
	digest string
}

// zipfS is serve-zipf's Zipf exponent over key popularity ranks.
const zipfS = 1.2

// zipfLimit is serve-zipf's latency limit: goodput counts the OK
// responses that arrive within it.
const zipfLimit = 500 * time.Millisecond

var fullScale = scale{
	maxDyn:      100_000,
	fabricBench: "quick",
	rate:        50,
	warmKeys:    64,
	setups:      3,
	digest:      "sweep-cold",
}

var shortScale = scale{
	maxDyn:       20000,
	sweepBenches: []string{"bfs", "fft", "mm"},
	fabricBench:  "mm,gzip",
	rate:         40,
	warmKeys:     4,
	setups:       2,
	digest:       "sweep-cold-short",
}

// outcome is what one workload run measured.
type outcome struct {
	attempted, failed int
	// failures says why each failed operation failed.
	failures []string
	metrics  map[string]float64
	// extra goes into the run record only: sample counts, rates, limits.
	extra map[string]float64
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, extra: map[string]float64{}}
}

// check counts one checked operation, failing it when err is non-nil.
func (o *outcome) check(what string, err error) {
	o.attempted++
	if err != nil {
		o.failed++
		if len(o.failures) < 8 {
			o.failures = append(o.failures, what+": "+err.Error())
		}
	}
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runLimit bounds a whole run, so a hang fails instead of blocking.
const runLimit = 150 * time.Second

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	wl := fs.String("workload", "", "workload: sweep-cold | serve-zipf | fabric-store")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 25, "measurement time per run")
	traceOn := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	records := fs.String("records", filepath.Join(".perfbench", "records.jsonl"), "append the run record to this file (empty = none)")
	fs.Parse(os.Args[1:])

	cfg := config{
		workload: *wl, seed: *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *traceOn == 1, scale: fullScale, workers: runtime.NumCPU(),
	}
	if *traceOn != 0 && *traceOn != 1 {
		fail(fmt.Errorf("--trace must be 0 or 1, got %d", *traceOn))
	}
	dir, err := filepath.Abs(".perfbench")
	if err != nil {
		fail(err)
	}
	cfg.dir = dir
	out, err := run(cfg)
	if err != nil {
		fail(err)
	}
	defs := cfg.metricDefs()
	res := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed,
		Metrics: map[string]metricValue{}}
	for _, f := range out.failures {
		fmt.Println("FAILED", f)
	}
	if res.Correct {
		for _, d := range defs {
			res.Metrics[d.name] = metricValue{Value: out.metrics[d.name], Unit: d.unit}
			fmt.Printf("%-30s %16.6f %s\n", d.name, out.metrics[d.name], d.unit)
		}
	}
	for _, k := range sortedKeys(out.extra) {
		fmt.Printf("# %-28s %16.6f\n", k, out.extra[k])
	}
	if *records != "" {
		if err := appendRecord(*records, newRecord(cfg, out, defs)); err != nil {
			fail(err)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// run executes one workload run and fills in the metrics its mode
// reports.
func run(cfg config) (*outcome, error) {
	if cfg.seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	var out *outcome
	var err error
	switch cfg.workload {
	case wlSweep:
		out, err = runSweep(ctx, cfg)
	case wlZipf:
		out, err = runZipf(ctx, cfg)
	case wlFabric:
		out, err = runFabric(ctx, cfg)
	default:
		return nil, fmt.Errorf("unknown --workload %q (have %v)", cfg.workload, workloadNames)
	}
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		out.metrics["peak_rss_mib"] = peakRSSMiB()
	}
	// Report exactly the mode's metric list; a layer the workload does
	// not run reads 0.
	got := out.metrics
	out.metrics = map[string]float64{}
	for _, d := range cfg.metricDefs() {
		out.metrics[d.name] = got[d.name]
	}
	return out, nil
}

// metricDefs is the metric list the run's mode reports.
func (c *config) metricDefs() []metricDef {
	if c.trace {
		return perLayer
	}
	return endToEnd
}

func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
