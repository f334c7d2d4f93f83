package exocore

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"exocore/internal/bsa"
	"exocore/internal/tdg"
	"exocore/internal/workloads"
)

// referenceCuts is the brute-force cut set: for each offload-planned
// loop, walk every dynamic instruction's loop chain and record each
// index where the instruction is nested inside the loop and its
// predecessor is not.
func referenceCuts(td *tdg.TDG, bsas map[string]tdg.BSA, plans map[string]*tdg.Plan) []int32 {
	offload := map[int]bool{}
	for name, plan := range plans {
		if bsas[name].OffloadsCore() {
			for l := range plan.Regions {
				offload[l] = true
			}
		}
	}
	nestedIn := func(i, loop int) bool {
		for l := td.Nest.InnermostOfInst(int(td.Trace.Insts[i].SI)); l != -1; l = td.Nest.Loops[l].Parent {
			if l == loop {
				return true
			}
		}
		return false
	}
	set := map[int32]bool{}
	for l := range offload {
		prev := false
		for i := range td.Trace.Insts {
			in := nestedIn(i, l)
			if in && !prev {
				set[int32(i)] = true
			}
			prev = in
		}
	}
	var cuts []int32
	for c := range set {
		cuts = append(cuts, c)
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	return cuts
}

// TestCutSetMatchesReference gates the one-pass cut set delta evaluation
// publishes prefixes at: over every workload and both registries it
// equals the brute-force reference, and under random assignments every
// offload segment Segmentize yields starts at a cut (or at 0) — so a
// core-resident unit always ends where a prefix was published.
func TestCutSetMatchesReference(t *testing.T) {
	const maxDyn = 5000
	rng := rand.New(rand.NewSource(3))
	for _, w := range workloads.All() {
		td := buildTDG(t, w.Name, maxDyn)
		for _, reg := range []*bsa.Registry{bsa.Default(), bsa.Standard()} {
			bsas := reg.New()
			plans := analyzeAll(td, bsas)
			cuts := cutSet(td, bsas, plans)
			if want := referenceCuts(td, bsas, plans); !reflect.DeepEqual(cuts, want) {
				t.Fatalf("%s/%d BSAs: cut set %v, want %v", w.Name, reg.Len(), cuts, want)
			}
			isCut := map[int]bool{0: true}
			for _, c := range cuts {
				isCut[int(c)] = true
			}

			// Assignable loops with their candidate BSAs, in a fixed order
			// so the rng draws are deterministic.
			var loops []int
			cands := map[int][]string{}
			for l := range td.Nest.Loops {
				for _, name := range reg.Names() {
					if plans[name].Region(l) != nil {
						cands[l] = append(cands[l], name)
					}
				}
				if len(cands[l]) > 0 {
					loops = append(loops, l)
				}
			}
			for i := 0; i < 20; i++ {
				assign := Assignment{}
				for _, l := range loops {
					if rng.Intn(2) == 0 {
						assign[l] = cands[l][rng.Intn(len(cands[l]))]
					}
				}
				for _, seg := range Segmentize(td, assign) {
					if seg.LoopID >= 0 && bsas[assign[seg.LoopID]].OffloadsCore() && !isCut[seg.Start] {
						t.Fatalf("%s/%d BSAs %v: offload segment %+v starts off the cut set",
							w.Name, reg.Len(), assign, seg)
					}
				}
			}
		}
	}
}
