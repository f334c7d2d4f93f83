package gsdae

import (
	"sort"
	"testing"

	"exocore/internal/cores"
	"exocore/internal/exocore"
	"exocore/internal/tdg"
	"exocore/internal/workloads"
)

func buildTDG(t *testing.T, name string) *tdg.TDG {
	t.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := w.Trace(20_000)
	if err != nil {
		t.Fatal(err)
	}
	td, err := tdg.Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	return td
}

// plannedLoops returns the plan's loop IDs, ascending.
func plannedLoops(p *tdg.Plan) []int {
	var loops []int
	for l := range p.Regions {
		loops = append(loops, l)
	}
	sort.Ints(loops)
	return loops
}

// TestAnalyzePlansOnlyIndexChasing: GS-DAE abstains on a dense kernel
// with no dependent loads and plans the index-chasing loops of a CSR
// traversal.
func TestAnalyzePlansOnlyIndexChasing(t *testing.T) {
	if p := New().Analyze(buildTDG(t, "mm")); len(p.Regions) != 0 {
		t.Errorf("mm: planned loops %v, want none (no dependent loads)", plannedLoops(p))
	}
	if p := New().Analyze(buildTDG(t, "bfs")); len(p.Regions) == 0 {
		t.Error("bfs: no loop planned, want at least one index-chasing loop")
	}
}

// TestAnalyzeRespectsDescriptorBudget: a loop with more static
// instructions than MaxStaticInsts is never planned, however many
// gathers it holds.
func TestAnalyzeRespectsDescriptorBudget(t *testing.T) {
	td := buildTDG(t, "bfs")
	loops := plannedLoops(New().Analyze(td))
	if len(loops) == 0 {
		t.Fatal("bfs: no loop planned")
	}
	// Shrink the budget to one below the smallest planned loop: that
	// loop, and every loop over the budget, must drop out.
	smallest := loops[0]
	for _, l := range loops {
		if td.Nest.InstsOf(l) < td.Nest.InstsOf(smallest) {
			smallest = l
		}
	}
	m := New()
	m.MaxStaticInsts = td.Nest.InstsOf(smallest) - 1
	p := m.Analyze(td)
	if p.Region(smallest) != nil {
		t.Errorf("loop %d (%d static insts) planned under a budget of %d",
			smallest, td.Nest.InstsOf(smallest), m.MaxStaticInsts)
	}
	for l := range p.Regions {
		if n := td.Nest.InstsOf(l); n > m.MaxStaticInsts {
			t.Errorf("loop %d (%d static insts) planned under a budget of %d", l, n, m.MaxStaticInsts)
		}
	}
}

// TestShallowQueueNeverFaster: bounding run-ahead to one in-flight
// decoupled load can only cost cycles against the default 16-entry
// prefetch queue, on every planned bfs region.
func TestShallowQueueNeverFaster(t *testing.T) {
	td := buildTDG(t, "bfs")
	run := func(m *Model, loop int) int64 {
		t.Helper()
		bsas := map[string]tdg.BSA{m.Name(): m}
		plans := map[string]*tdg.Plan{m.Name(): m.Analyze(td)}
		res, err := exocore.Run(td, cores.OOO2, bsas, plans,
			exocore.Assignment{loop: m.Name()}, exocore.RunOpts{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	shallow := New()
	shallow.QueueDepth = 1
	for _, l := range plannedLoops(New().Analyze(td)) {
		deep, one := run(New(), l), run(shallow, l)
		if one < deep {
			t.Errorf("loop %d: QueueDepth 1 took %d cycles, fewer than QueueDepth 16's %d", l, one, deep)
		}
		t.Logf("loop %d: QueueDepth 16 %d cycles, QueueDepth 1 %d cycles", l, deep, one)
	}
}
