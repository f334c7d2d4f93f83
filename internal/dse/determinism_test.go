package dse

import (
	"bytes"
	"encoding/json"
	"sort"
	"testing"

	"exocore/internal/bsa"
	"exocore/internal/cli"
	"exocore/internal/cores"
	"exocore/internal/exocore"
	"exocore/internal/report"
	"exocore/internal/runner"
	"exocore/internal/sched"
	"exocore/internal/tdg"
	"exocore/internal/workloads"
)

func detWorkloads(t *testing.T) []*workloads.Workload {
	t.Helper()
	var ws []*workloads.Workload
	for _, name := range []string{"mm", "cjpeg", "mcf"} {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	return ws
}

// marshal renders an exploration to canonical bytes (the same designs
// slice cmd/dse prints), for byte-identity comparison.
func marshal(t *testing.T, exp *Exploration) []byte {
	t.Helper()
	b, err := json.MarshalIndent(exp.Designs, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSerialParallelByteIdentical asserts the exploration output is
// byte-identical between workers=1 and a heavily parallel run, so worker
// count and completion order can never leak into results.
func TestSerialParallelByteIdentical(t *testing.T) {
	ws := detWorkloads(t)
	cs := []cores.Config{cores.IO2, cores.OOO2}

	serial, err := Explore(Options{
		Workloads: ws, Cores: cs,
		Engine: runner.New(runner.Options{MaxDyn: 10_000, Workers: 1}),
	})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Explore(Options{
		Workloads: ws, Cores: cs,
		Engine: runner.New(runner.Options{MaxDyn: 10_000, Workers: 16}),
	})
	if err != nil {
		t.Fatal(err)
	}

	sb, pb := marshal(t, serial), marshal(t, parallel)
	if !bytes.Equal(sb, pb) {
		for i := range sb {
			if i >= len(pb) || sb[i] != pb[i] {
				lo := i - 80
				if lo < 0 {
					lo = 0
				}
				t.Fatalf("serial and parallel output diverge at byte %d:\nserial:   ...%s\nparallel: ...%s",
					i, sb[lo:min(i+80, len(sb))], pb[lo:min(i+80, len(pb))])
			}
		}
		t.Fatalf("serial (%d bytes) is a prefix of parallel (%d bytes)", len(sb), len(pb))
	}
}

// reportDoc renders an exploration as the exocore-result/v1 document
// cmd/dse emits with -json, without the Metrics block (a reference sweep
// has no engine to report).
func reportDoc(t *testing.T, exp *Exploration) []byte {
	t.Helper()
	doc := report.New("dse")
	for _, d := range exp.Designs {
		doc.Add(report.Result{
			Design: d.Code, Core: d.Core.Name, BSAs: SubsetBSAs(d.Mask),
			AreaMM2: d.AreaMM2,
			RelPerf: d.RelPerf, RelEnergyEff: d.RelEnergyEff, RelArea: d.RelArea,
		})
		for _, b := range d.PerBench {
			doc.Add(report.Result{
				Design: d.Code, Core: d.Core.Name, Bench: b.Bench,
				Category: string(b.Category),
				Cycles:   b.Cycles, EnergyNJ: b.EnergyNJ,
			})
		}
	}
	var buf bytes.Buffer
	if err := doc.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// referenceContext builds the scheduling context sched.NewContextWith
// builds — the same plans, baseline and candidate solos, in the same
// (BSA name, loop) order — with every measurement a from-scratch
// exocore.Run and no unit cache. Its nil Cache keeps later Evaluate
// calls uncached too, so it shares only evalUnit with the engine: no
// cut set, prefix publication, shared pool or outcome memoization.
func referenceContext(t *testing.T, td *tdg.TDG, core cores.Config, bsas map[string]tdg.BSA) *sched.Context {
	t.Helper()
	sc := &sched.Context{TDG: td, Core: core, BSAs: bsas, Plans: map[string]*tdg.Plan{}}
	var names []string
	for name, b := range bsas {
		sc.Plans[name] = b.Analyze(td)
		names = append(names, name)
	}
	sort.Strings(names)
	base, err := exocore.Run(td, core, bsas, sc.Plans, nil, exocore.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	sc.BaseCycles = base.Cycles
	sc.BaseEnergyNJ = exocore.EnergyOf(base, core, bsas).TotalNJ()
	for _, name := range names {
		var loops []int
		for l := range sc.Plans[name].Regions {
			loops = append(loops, l)
		}
		sort.Ints(loops)
		for _, l := range loops {
			res, err := exocore.Run(td, core, bsas, sc.Plans, exocore.Assignment{l: name}, exocore.RunOpts{})
			if err != nil {
				t.Fatal(err)
			}
			sc.Candidates = append(sc.Candidates, sched.Candidate{
				LoopID: l, BSA: name,
				Cycles:     res.Cycles,
				EnergyNJ:   exocore.EnergyOf(res, core, bsas).TotalNJ(),
				EstSpeedup: sc.Plans[name].Regions[l].EstSpeedup,
			})
		}
	}
	return sc
}

// quickWorkloads resolves the -bench quick set.
func quickWorkloads(t *testing.T) []*workloads.Workload {
	t.Helper()
	var ws []*workloads.Workload
	for _, name := range cli.QuickSet {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	return ws
}

// referenceSweep assembles the sweep of ws over cs and every BSA subset
// through NewShell, AddBench and Normalize from uncached reference
// contexts: the engine-free baseline the engine's sweeps are gated on.
func referenceSweep(t *testing.T, ws []*workloads.Workload, cs []cores.Config, maxDyn int) *Exploration {
	t.Helper()
	reg := bsa.Default()
	ref, err := NewShell(reg, nil, cs)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		tr, err := w.Trace(maxDyn)
		if err != nil {
			t.Fatal(err)
		}
		td, err := tdg.Build(tr)
		if err != nil {
			t.Fatal(err)
		}
		for _, core := range cs {
			sc := referenceContext(t, td, core, reg.New())
			for _, d := range ref.Designs {
				if d.Core.Name != core.Name {
					continue
				}
				cycles, energy, err := sc.Evaluate(sc.Oracle(d.BSAs))
				if err != nil {
					t.Fatal(err)
				}
				if err := ref.AddBench(d.Code, BenchResult{
					Bench: w.Name, Category: w.Category, Cycles: cycles, EnergyNJ: energy,
				}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	ref.Normalize()
	return ref
}

// requireSameDoc fails unless got and ref render to byte-identical
// exocore-result/v1 documents, quoting the first divergence.
func requireSameDoc(t *testing.T, got, ref *Exploration) {
	t.Helper()
	gb, rb := reportDoc(t, got), reportDoc(t, ref)
	if bytes.Equal(gb, rb) {
		return
	}
	for i := range gb {
		if i >= len(rb) || gb[i] != rb[i] {
			lo := i - 80
			if lo < 0 {
				lo = 0
			}
			t.Fatalf("engine and reference sweeps diverge at byte %d:\nengine:    ...%s\nreference: ...%s",
				i, gb[lo:min(i+80, len(gb))], rb[lo:min(i+80, len(rb))])
		}
	}
	t.Fatalf("engine doc (%d bytes) is a prefix of reference doc (%d bytes)", len(gb), len(rb))
}

// TestCachedSweepByteIdentical is the end-to-end correctness gate for the
// evaluation-unit cache: over the quick-set workloads on OOO2 and every
// BSA subset, a sweep whose unit outcomes are memoized — cold, and again
// warm on the same engine — must produce a byte-identical
// exocore-result/v1 document to the uncached reference sweep.
func TestCachedSweepByteIdentical(t *testing.T) {
	const maxDyn = 10_000
	ws := quickWorkloads(t)
	cs := []cores.Config{cores.OOO2}
	ref := referenceSweep(t, ws, cs, maxDyn)

	eng := runner.New(runner.Options{MaxDyn: maxDyn})
	cold, err := Explore(Options{Workloads: ws, Cores: cs, Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	if ec := eng.Metrics().EvalCache; ec == nil || ec.Hits == 0 {
		t.Fatalf("eval cache stats %+v: the sweep never reused a unit outcome", ec)
	}
	requireSameDoc(t, cold, ref)

	warm, err := Explore(Options{Workloads: ws, Cores: cs, Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	requireSameDoc(t, warm, ref)
}

// TestDeltaMatchesFullRun is the end-to-end correctness gate for the
// incremental delta-evaluation path (cut set, prefix reuse, the
// cross-core shared pool): over the quick-set workloads, IO2 and OOO2
// and every BSA subset, the default engine's sweep must produce a
// byte-identical exocore-result/v1 document to the uncached reference
// sweep.
func TestDeltaMatchesFullRun(t *testing.T) {
	const maxDyn = 10_000
	ws := quickWorkloads(t)
	cs := []cores.Config{cores.IO2, cores.OOO2}

	got, err := Explore(Options{
		Workloads: ws, Cores: cs,
		Engine: runner.New(runner.Options{MaxDyn: maxDyn}),
	})
	if err != nil {
		t.Fatal(err)
	}
	requireSameDoc(t, got, referenceSweep(t, ws, cs, maxDyn))
}

// TestExploreReusesCache asserts the engine does strictly less redundant
// work than the naive per-design loop: across the 16 subsets per core,
// scheduling contexts are built exactly once per (bench, core) and
// repeated assignments are served from the eval cache.
func TestExploreReusesCache(t *testing.T) {
	ws := detWorkloads(t)
	cs := []cores.Config{cores.IO2, cores.OOO2}
	eng := runner.New(runner.Options{MaxDyn: 10_000})
	if _, err := Explore(Options{Workloads: ws, Cores: cs, Engine: eng}); err != nil {
		t.Fatal(err)
	}
	m := eng.Metrics()

	if got, want := m.Stage(runner.StageSched).Misses, int64(len(ws)*len(cs)); got != want {
		t.Errorf("sched contexts built = %d, want exactly %d (one per bench×core)", got, want)
	}
	ev := m.Stage(runner.StageEval)
	// 2^N subsets × benches × cores evaluations requested, but distinct
	// assignments are far fewer: the hit counter must be positive.
	if got, want := ev.Calls, int64((1<<eng.BSAs().Len())*len(ws)*len(cs)); got != want {
		t.Errorf("eval calls = %d, want %d", got, want)
	}
	if ev.Hits == 0 {
		t.Error("eval cache hits = 0: the 16 subsets did not share any work")
	}
	if ev.Misses >= ev.Calls {
		t.Error("every evaluation missed: memoization is not effective")
	}
	t.Logf("eval: %d calls, %d served from cache (%.0f%%)",
		ev.Calls, ev.Hits, 100*float64(ev.Hits)/float64(ev.Calls))
}

// TestSharedEngineAcrossExplorations asserts a second exploration on the
// same engine is served almost entirely from cache.
func TestSharedEngineAcrossExplorations(t *testing.T) {
	ws := detWorkloads(t)
	cs := []cores.Config{cores.IO2}
	eng := runner.New(runner.Options{MaxDyn: 10_000})
	first, err := Explore(Options{Workloads: ws, Cores: cs, Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	missesAfterFirst := eng.Metrics().Stage(runner.StageEval).Misses

	second, err := Explore(Options{Workloads: ws, Cores: cs, Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.Metrics().Stage(runner.StageEval).Misses; got != missesAfterFirst {
		t.Errorf("second exploration recomputed %d evaluations", got-missesAfterFirst)
	}
	if !bytes.Equal(marshal(t, first), marshal(t, second)) {
		t.Error("cached re-exploration produced different results")
	}
}

// TestSweepSoloAccounting: an Oracle sweep measures every planned
// candidate solo of every (bench, core) context exactly once, in phase
// 1, and an Amdahl sweep measures none.
func TestSweepSoloAccounting(t *testing.T) {
	ws := detWorkloads(t)
	cs := []cores.Config{cores.IO2, cores.OOO2}
	for _, amdahl := range []bool{false, true} {
		eng := runner.New(runner.Options{MaxDyn: 10_000})
		if _, err := Explore(Options{Workloads: ws, Cores: cs, Engine: eng, UseAmdahl: amdahl}); err != nil {
			t.Fatal(err)
		}
		var want int64
		if !amdahl {
			for _, w := range ws {
				for _, core := range cs {
					sc, err := eng.Context(w, core)
					if err != nil {
						t.Fatal(err)
					}
					for _, p := range sc.Plans {
						want += int64(len(p.Regions) * sc.TDG.Trace.Len())
					}
				}
			}
		}
		s := eng.Metrics().Stage(runner.StageSolos)
		if s.Insts != want {
			t.Errorf("amdahl=%t: solo instructions %d, want %d", amdahl, s.Insts, want)
		}
		if !amdahl && s.Misses != int64(len(ws)*len(cs)) {
			t.Errorf("solo measurements = %d, want one per bench×core (%d)", s.Misses, len(ws)*len(cs))
		}
	}
}
