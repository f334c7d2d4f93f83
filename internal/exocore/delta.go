// Cut set: where delta evaluation publishes prefix outcomes. Built once
// per Cache (ie. once per (benchmark, core) scheduling context), it tells
// the evaluator where future assignments may legally cut the trace, so
// unit evaluations can publish prefix outcomes there (see publisher in
// cache.go) and later assignments pay only their delta.
//
// Under any assignment, an offload segment for loop L starts exactly
// where execution enters L from outside it: Segmentize puts every
// instruction nested inside the outermost assigned loop into that loop's
// segment, so an offload segment cannot begin in the middle of a run of
// instructions nested inside it. Since Run validates assignments against
// the BSA plans, only offload-planned loops can form such segments. The
// cut set is therefore, for each offload-planned loop, the start of every
// maximal run of dynamic instructions nested inside it — the only indices
// (besides the trace end) where a core-resident unit can end. Gated by
// TestCutSetMatchesReference and the sweep-vs-reference equivalence test
// in internal/dse.
package exocore

import (
	"sort"

	"exocore/internal/tdg"
)

// cutSet computes the sorted cut set for one (TDG, BSA set, plans)
// tuple in one pass over the TDG's innermost-loop atoms. Whether an
// instruction is nested inside a loop depends only on its innermost
// loop, so maximal nested runs begin at atom starts: an atom opens a run
// of loop L when L encloses it but not the atom before it.
func cutSet(t *tdg.TDG, bsas map[string]tdg.BSA, plans map[string]*tdg.Plan) []int32 {
	nest := t.Nest
	offload := make([]bool, len(nest.Loops))
	for name, plan := range plans {
		if plan == nil || !bsas[name].OffloadsCore() {
			continue
		}
		for l := range plan.Regions {
			offload[l] = true
		}
	}
	// last[l] is one past the index of the latest atom loop l encloses
	// (-1 before any).
	last := make([]int, len(nest.Loops))
	for l := range last {
		last[l] = -1
	}
	var cuts []int32
	for i, a := range t.LoopAtoms() {
		cut := false
		for l := int(a.Loop); l != -1; l = nest.Loops[l].Parent {
			if offload[l] && last[l] != i {
				cut = true
			}
			last[l] = i + 1
		}
		if cut {
			cuts = append(cuts, a.Start)
		}
	}
	return cuts
}

// cutsIn returns the cuts strictly inside (start, end) — the indices at
// which a unit spanning [start, end) should publish prefix outcomes.
func cutsIn(cuts []int32, start, end int) []int32 {
	lo := sort.Search(len(cuts), func(i int) bool { return int(cuts[i]) > start })
	hi := sort.Search(len(cuts), func(i int) bool { return int(cuts[i]) >= end })
	if lo >= hi {
		return nil
	}
	return cuts[lo:hi]
}
