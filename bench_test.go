// Package bench holds the benchmark harness that regenerates every table
// and figure of the paper (at reduced trace lengths so `go test -bench`
// stays fast; the cmd/ binaries run the full-scale versions). Custom
// metrics carry each experiment's headline numbers, so a bench run doubles
// as a regression check on the reproduced results.
package bench

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"exocore/internal/bsa"
	"exocore/internal/cache"
	"exocore/internal/cores"
	"exocore/internal/dse"
	"exocore/internal/exocore"
	"exocore/internal/fusion"
	"exocore/internal/refsim"
	"exocore/internal/runner"
	"exocore/internal/sched"
	"exocore/internal/serve"
	"exocore/internal/stats"
	"exocore/internal/tdg"
	"exocore/internal/trace"
	"exocore/internal/validate"
	"exocore/internal/workloads"
)

const benchDyn = 15000

// stdEngine pins a benchmark engine to the paper's original four BSAs so
// benchdiff numbers stay comparable across the registry growing new
// models. Benchmarks of the enlarged grid live next to the graph
// workloads (BenchmarkGraphExocoreRun).
func stdEngine() *runner.Engine {
	return runner.New(runner.Options{MaxDyn: benchDyn, BSAs: bsa.Standard()})
}

func quickSet(b *testing.B) []*workloads.Workload {
	b.Helper()
	var ws []*workloads.Workload
	for _, name := range []string{"mm", "nbody", "cjpeg", "mcf", "gzip", "stencil"} {
		w, err := workloads.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		ws = append(ws, w)
	}
	return ws
}

// BenchmarkExocoreRun measures one full-trace engine evaluation under an
// Oracle assignment — the unit of work the DSE sweep repeats tens of
// thousands of times. Tracked in BENCH_7.json (ns/op, allocs/op).
func BenchmarkExocoreRun(b *testing.B) {
	w, err := workloads.ByName("cjpeg")
	if err != nil {
		b.Fatal(err)
	}
	tr, err := w.Trace(benchDyn)
	if err != nil {
		b.Fatal(err)
	}
	td, err := tdg.Build(tr)
	if err != nil {
		b.Fatal(err)
	}
	bsas := bsa.Standard().New()
	ctx, err := sched.NewContext(td, cores.OOO2, bsas)
	if err != nil {
		b.Fatal(err)
	}
	assign := ctx.Oracle(bsa.Standard().Names())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exocore.Run(td, cores.OOO2, bsas, ctx.Plans, assign, exocore.RunOpts{}); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(tr.Len()))
}

// BenchmarkGraphExocoreRun is BenchmarkExocoreRun for the graph family:
// one full-trace evaluation of bfs under the full five-model registry,
// where the Oracle hands the hot frontier loop to GS-DAE — so the
// decoupled access/compute stream transform is in the measured path.
// Run by `make bench`; tracked in BENCH_7.json.
func BenchmarkGraphExocoreRun(b *testing.B) {
	w, err := workloads.ByName("bfs")
	if err != nil {
		b.Fatal(err)
	}
	tr, err := w.Trace(benchDyn)
	if err != nil {
		b.Fatal(err)
	}
	td, err := tdg.Build(tr)
	if err != nil {
		b.Fatal(err)
	}
	bsas := bsa.Default().New()
	ctx, err := sched.NewContext(td, cores.OOO2, bsas)
	if err != nil {
		b.Fatal(err)
	}
	assign := ctx.Oracle(bsa.Default().Names())
	gsdae := false
	for _, name := range assign {
		if name == "GS-DAE" {
			gsdae = true
		}
	}
	if !gsdae {
		b.Fatalf("oracle assignment %v does not exercise GS-DAE", assign)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exocore.Run(td, cores.OOO2, bsas, ctx.Plans, assign, exocore.RunOpts{}); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(tr.Len()))
}

// BenchmarkStreamedExocoreRun measures the streaming baseline end to
// end: chunked generator source (functional simulation + cache/bpred
// annotation on a producer goroutine) pipelined into RunStream's
// windowed-µDG evaluation — the whole trace→eval path with the trace
// never materialized. Comparable work to trace synthesis + tdg.Build +
// the materialized baseline Run, which is the frozen baseline recorded
// in BENCH_9.json. Tracked in BENCH_9.json (ns/op, allocs/op).
func BenchmarkStreamedExocoreRun(b *testing.B) {
	w, err := workloads.ByName("cjpeg")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := trace.NewPipelined(
			w.Source(workloads.SourceConfig{MaxDyn: benchDyn, ChunkInsts: 1 << 12}), 2)
		res, err := exocore.RunStream(src, cores.OOO2, exocore.RunOpts{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Cycles <= 0 {
			b.Fatalf("implausible cycles %d", res.Cycles)
		}
	}
	b.SetBytes(benchDyn)
}

// BenchmarkDSESweep measures the paper's headline experiment end to end:
// the 64-design × quick-set sweep (§5, Figures 10-12) on a fresh engine,
// so every stage — trace, TDG, scheduling contexts, and all assignment
// evaluations — is paid inside the loop. This is the number the
// evaluation-cache work is judged by; tracked in BENCH_7.json.
func BenchmarkDSESweep(b *testing.B) {
	ws := quickSet(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exp, err := dse.Explore(dse.Options{Workloads: ws, Engine: stdEngine()})
		if err != nil {
			b.Fatal(err)
		}
		if len(exp.Designs) != 64 {
			b.Fatalf("expected 64 designs, got %d", len(exp.Designs))
		}
	}
}

// BenchmarkContextConstruction measures building one scheduling context
// and measuring every BSA's candidates — plans, the baseline run plus
// every per-candidate solo measurement — which is
// where a fresh sweep spends most of its time. Exercises the cut set,
// prefix publication and the cross-core shared pool on a cold cache each
// iteration. Tracked in BENCH_7.json.
func BenchmarkContextConstruction(b *testing.B) {
	w, err := workloads.ByName("cjpeg")
	if err != nil {
		b.Fatal(err)
	}
	tr, err := w.Trace(benchDyn)
	if err != nil {
		b.Fatal(err)
	}
	td, err := tdg.Build(tr)
	if err != nil {
		b.Fatal(err)
	}
	bsas := bsa.Standard().New()
	names := bsa.Standard().Names()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx, err := sched.NewContext(td, cores.OOO2, bsas)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ctx.Measure(context.Background(), names, nil, ""); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1Validation regenerates Table 1 (and the underlying
// Figure 5 scatter data): model validation against the independent
// reference simulator and the published accelerator results.
func BenchmarkTable1Validation(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		reports, err := validate.Table1(benchDyn)
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, r := range reports {
			if e := r.PerfErr(); e > worst {
				worst = e
			}
		}
	}
	b.ReportMetric(100*worst, "worst-perf-err-%")
}

// BenchmarkFig10Frontier regenerates Figure 3/10: the overall
// energy-performance tradeoff across designs.
func BenchmarkFig10Frontier(b *testing.B) {
	ws := quickSet(b)
	var frontierLen int
	var fullExoPerf float64
	for i := 0; i < b.N; i++ {
		exp, err := dse.Explore(dse.Options{Workloads: ws, Engine: stdEngine()})
		if err != nil {
			b.Fatal(err)
		}
		frontierLen = len(exp.Frontier())
		perf, _, err := exp.RelativeTo("OOO2-SDNT", "OOO2")
		if err != nil {
			b.Fatal(err)
		}
		fullExoPerf = perf
	}
	b.ReportMetric(float64(frontierLen), "frontier-points")
	b.ReportMetric(fullExoPerf, "OOO2-exocore-speedup")
}

// BenchmarkFig11Categories regenerates Figure 11: accelerator benefit per
// workload category.
func BenchmarkFig11Categories(b *testing.B) {
	var ws []*workloads.Workload
	for _, name := range []string{"mm", "stencil", "cjpeg", "gsmencode", "mcf", "gzip"} {
		w, err := workloads.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		ws = append(ws, w)
	}
	var regularGain, irregularGain float64
	for i := 0; i < b.N; i++ {
		exp, err := dse.Explore(dse.Options{Workloads: ws, Engine: stdEngine()})
		if err != nil {
			b.Fatal(err)
		}
		regularGain, _ = exp.CategoryAggregate("OOO2-SDNT", workloads.Regular)
		irregularGain, _ = exp.CategoryAggregate("OOO2-SDNT", workloads.Irregular)
	}
	b.ReportMetric(regularGain, "regular-relperf")
	b.ReportMetric(irregularGain, "irregular-relperf")
}

// BenchmarkFig12Characterization regenerates Figure 12: all 64 designs'
// speedup / energy efficiency / area relative to IO2.
func BenchmarkFig12Characterization(b *testing.B) {
	ws := quickSet(b)
	var designs int
	for i := 0; i < b.N; i++ {
		exp, err := dse.Explore(dse.Options{Workloads: ws, Engine: stdEngine()})
		if err != nil {
			b.Fatal(err)
		}
		designs = len(exp.Designs)
	}
	b.ReportMetric(float64(designs), "designs")
}

// BenchmarkFig13Breakdown regenerates Figure 13: per-benchmark time and
// energy attribution across the models of an OOO2 ExoCore.
func BenchmarkFig13Breakdown(b *testing.B) {
	ws := quickSet(b)
	var unaccel float64
	for i := 0; i < b.N; i++ {
		var total float64
		for _, w := range ws {
			tr, err := w.Trace(benchDyn)
			if err != nil {
				b.Fatal(err)
			}
			td, err := tdg.Build(tr)
			if err != nil {
				b.Fatal(err)
			}
			bsas := bsa.Standard().New()
			ctx, err := sched.NewContext(td, cores.OOO2, bsas)
			if err != nil {
				b.Fatal(err)
			}
			assign := ctx.Oracle(bsa.Standard().Names())
			res, err := exocore.Run(td, cores.OOO2, bsas, ctx.Plans, assign, exocore.RunOpts{})
			if err != nil {
				b.Fatal(err)
			}
			total += res.UnacceleratedFraction()
		}
		unaccel = total / float64(len(ws))
	}
	b.ReportMetric(100*unaccel, "unaccelerated-%")
}

// BenchmarkFig14Switching regenerates Figure 14: the dynamic switching
// timeline of a full ExoCore.
func BenchmarkFig14Switching(b *testing.B) {
	w, err := workloads.ByName("djpeg")
	if err != nil {
		b.Fatal(err)
	}
	var switches int
	for i := 0; i < b.N; i++ {
		tr, err := w.Trace(benchDyn)
		if err != nil {
			b.Fatal(err)
		}
		td, err := tdg.Build(tr)
		if err != nil {
			b.Fatal(err)
		}
		bsas := bsa.Standard().New()
		ctx, err := sched.NewContext(td, cores.OOO2, bsas)
		if err != nil {
			b.Fatal(err)
		}
		assign := ctx.Oracle(bsa.Standard().Names())
		res, err := exocore.Run(td, cores.OOO2, bsas, ctx.Plans, assign,
			exocore.RunOpts{RecordSegments: true})
		if err != nil {
			b.Fatal(err)
		}
		switches = 0
		for k := 1; k < len(res.Segments); k++ {
			if res.Segments[k].BSA != res.Segments[k-1].BSA {
				switches++
			}
		}
	}
	b.ReportMetric(float64(switches), "model-switches")
}

// BenchmarkFig15Schedulers regenerates Figure 15: Oracle vs Amdahl-tree
// scheduling on multi-phase Mediabench workloads.
func BenchmarkFig15Schedulers(b *testing.B) {
	var names []string
	for _, w := range workloads.All() {
		if w.Suite == "Mediabench" {
			names = append(names, w.Name)
		}
	}
	names = names[:4]
	avail := bsa.Standard().Names()
	var ratio float64
	for i := 0; i < b.N; i++ {
		var ratios []float64
		for _, name := range names {
			w, _ := workloads.ByName(name)
			tr, err := w.Trace(benchDyn)
			if err != nil {
				b.Fatal(err)
			}
			td, err := tdg.Build(tr)
			if err != nil {
				b.Fatal(err)
			}
			ctx, err := sched.NewContext(td, cores.OOO2, bsa.Standard().New())
			if err != nil {
				b.Fatal(err)
			}
			oc, _, err := ctx.Evaluate(ctx.Oracle(avail))
			if err != nil {
				b.Fatal(err)
			}
			ac, _, err := ctx.Evaluate(ctx.AmdahlTree(avail))
			if err != nil {
				b.Fatal(err)
			}
			ratios = append(ratios, float64(oc)/float64(ac))
		}
		ratio = stats.Geomean(ratios)
	}
	b.ReportMetric(ratio, "amdahl/oracle-perf")
}

// BenchmarkAblationWindow sweeps the issue-window size of the OOO2 model
// (DESIGN.md §5: windowed graph solving sensitivity).
func BenchmarkAblationWindow(b *testing.B) {
	w, err := workloads.ByName("mm")
	if err != nil {
		b.Fatal(err)
	}
	tr, err := w.Trace(benchDyn)
	if err != nil {
		b.Fatal(err)
	}
	for _, win := range []int{8, 16, 32, 64} {
		cfg := cores.OOO2
		cfg.Window = win
		b.Run(cfg.Name+"-w"+itoa(win), func(b *testing.B) {
			var cycles int64
			for i := 0; i < b.N; i++ {
				cycles, _ = cores.Evaluate(cfg, tr)
			}
			b.ReportMetric(float64(tr.Len())/float64(cycles), "ipc")
		})
	}
}

// BenchmarkAblationSchedulerMetric compares oracle selections under the
// energy-delay metric against a pure-performance oracle by disabling the
// energy term via the available-BSA sets (DESIGN.md §5).
func BenchmarkAblationSchedulerMetric(b *testing.B) {
	w, err := workloads.ByName("cjpeg")
	if err != nil {
		b.Fatal(err)
	}
	tr, err := w.Trace(benchDyn)
	if err != nil {
		b.Fatal(err)
	}
	td, err := tdg.Build(tr)
	if err != nil {
		b.Fatal(err)
	}
	var edp, perfOnly float64
	for i := 0; i < b.N; i++ {
		ctx, err := sched.NewContext(td, cores.OOO2, bsa.Standard().New())
		if err != nil {
			b.Fatal(err)
		}
		cycles, energyNJ, err := ctx.Evaluate(ctx.Oracle(bsa.Standard().Names()))
		if err != nil {
			b.Fatal(err)
		}
		edp = float64(cycles) * energyNJ
		// "Perf-only": best single-BSA full assignment by cycles.
		best := int64(1 << 62)
		var bestE float64
		for _, one := range bsa.Standard().Names() {
			c, e, err := ctx.Evaluate(ctx.Oracle([]string{one}))
			if err != nil {
				b.Fatal(err)
			}
			if c < best {
				best, bestE = c, e
			}
		}
		perfOnly = float64(best) * bestE
	}
	b.ReportMetric(perfOnly/edp, "edp-gain-vs-single-bsa")
}

// BenchmarkAblationPrefetch compares stream workloads with and without
// the next-line prefetcher (a memory-system knob outside the paper's
// configuration, exercised via the TraceWith hook).
func BenchmarkAblationPrefetch(b *testing.B) {
	w, err := workloads.ByName("stencil")
	if err != nil {
		b.Fatal(err)
	}
	for _, pf := range []bool{false, true} {
		name := "off"
		if pf {
			name = "on"
		}
		b.Run("prefetch-"+name, func(b *testing.B) {
			var cycles int64
			for i := 0; i < b.N; i++ {
				h := cache.DefaultHierarchy()
				h.NextLinePrefetch = pf
				tr, err := w.TraceWith(benchDyn, h)
				if err != nil {
					b.Fatal(err)
				}
				cycles, _ = cores.Evaluate(cores.OOO2, tr)
			}
			b.ReportMetric(float64(cycles), "cycles")
		})
	}
}

// BenchmarkFusionRules measures the declarative transform DSL (the §5.5
// extension): the standard fusion rule set applied to a kernel.
func BenchmarkFusionRules(b *testing.B) {
	w, err := workloads.ByName("conv")
	if err != nil {
		b.Fatal(err)
	}
	tr, err := w.Trace(benchDyn)
	if err != nil {
		b.Fatal(err)
	}
	td, err := tdg.Build(tr)
	if err != nil {
		b.Fatal(err)
	}
	base, _ := cores.Evaluate(cores.OOO2, tr)
	var speedup float64
	for i := 0; i < b.N; i++ {
		plan := fusion.Analyze(td, fusion.StandardRules)
		fused, _ := fusion.Evaluate(td, cores.OOO2, plan)
		speedup = float64(base) / float64(fused)
	}
	b.ReportMetric(speedup, "fusion-speedup")
}

// BenchmarkGraphConstruction measures raw µDG build+solve throughput —
// the framework's core operation.
func BenchmarkGraphConstruction(b *testing.B) {
	w, err := workloads.ByName("mm")
	if err != nil {
		b.Fatal(err)
	}
	tr, err := w.Trace(50000)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cores.Evaluate(cores.OOO4, tr)
	}
	b.SetBytes(int64(tr.Len())) // "bytes" = dynamic instructions
}

// BenchmarkReferenceSimulator measures the independent cycle-level
// simulator for comparison with the graph model's throughput.
func BenchmarkReferenceSimulator(b *testing.B) {
	w, err := workloads.ByName("mm")
	if err != nil {
		b.Fatal(err)
	}
	tr, err := w.Trace(50000)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		refsim.Simulate(cores.OOO4, tr)
	}
	b.SetBytes(int64(tr.Len()))
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// BenchmarkServeEvaluate measures the daemon's warm serving path: one
// /v1/evaluate request against a hot engine, over real HTTP. After the
// first iteration pays for the pipeline, the steady state is request
// decode + singleflight + cache-hit evaluation + document render — the
// latency a client of a long-running exocored actually sees.
func BenchmarkServeEvaluate(b *testing.B) {
	eng := stdEngine()
	srv, err := serve.New(serve.Config{Engine: eng})
	if err != nil {
		b.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	const body = `{"bench":"mm","core":"OOO2","bsas":"all","sched":"oracle"}`
	post := func() {
		resp, err := http.Post(hs.URL+"/v1/evaluate", "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		n, _ := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
		b.SetBytes(n)
	}
	post() // warm the engine outside the timed region
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
}
