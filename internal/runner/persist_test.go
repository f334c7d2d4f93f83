package runner

import (
	"testing"

	"exocore/internal/cores"
	"exocore/internal/obs"
	"exocore/internal/store"
)

// TestEngineWarmRestartThroughStore is the end-to-end gate for -store:
// two engines sharing one store directory (simulating a daemon
// restart) must agree exactly on every evaluation, and the second must
// come up warm — its first evaluations served partly from disk.
func TestEngineWarmRestartThroughStore(t *testing.T) {
	dir := t.TempDir()
	w := testWorkload(t, "cjpeg")
	assigns := []map[int]string{nil}

	open := func(reg *obs.Registry) *store.Store {
		t.Helper()
		s, err := store.Open(dir, store.Options{Reg: reg})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	reg1 := obs.NewRegistry()
	e1 := New(Options{MaxDyn: testMaxDyn, Persist: open(reg1), Reg: reg1})
	sc, err := e1.Solos(w, cores.OOO2, e1.BSAs().Names())
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Candidates) == 0 {
		t.Fatal("no candidates after measuring every BSA")
	}
	for _, c := range sc.Candidates {
		assigns = append(assigns, map[int]string{c.LoopID: c.BSA})
	}
	type meas struct {
		cycles int64
		energy float64
	}
	var want []meas
	for _, a := range assigns {
		cyc, nj, err := e1.Evaluate(w, cores.OOO2, a)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, meas{cyc, nj})
	}
	if reg1.Counter("store.writes").Value() == 0 {
		t.Fatal("first engine wrote nothing to the store")
	}

	reg2 := obs.NewRegistry()
	e2 := New(Options{MaxDyn: testMaxDyn, Persist: open(reg2), Reg: reg2})
	for i, a := range assigns {
		cyc, nj, err := e2.Evaluate(w, cores.OOO2, a)
		if err != nil {
			t.Fatal(err)
		}
		if cyc != want[i].cycles || nj != want[i].energy {
			t.Errorf("assign %v: warm engine = (%d, %g), cold = (%d, %g)",
				a, cyc, nj, want[i].cycles, want[i].energy)
		}
	}
	if hits := reg2.Counter("store.hits").Value(); hits == 0 {
		t.Error("restarted engine never hit the store")
	} else {
		t.Logf("restarted engine: %d store hits", hits)
	}

	// A different budget must namespace apart: no cross-hits.
	reg3 := obs.NewRegistry()
	e3 := New(Options{MaxDyn: testMaxDyn / 2, Persist: open(reg3), Reg: reg3})
	if _, _, err := e3.Evaluate(w, cores.OOO2, nil); err != nil {
		t.Fatal(err)
	}
	if hits := reg3.Counter("store.hits").Value(); hits != 0 {
		t.Errorf("budget %d engine hit %d entries persisted under budget %d",
			testMaxDyn/2, hits, testMaxDyn)
	}
}

// TestStoreNamespaceFingerprintsModels changes one core parameter under
// an unchanged core name: the store written under the old parameters
// must serve nothing, and the results must be the new configuration's,
// as a store-less engine computes them.
func TestStoreNamespaceFingerprintsModels(t *testing.T) {
	dir := t.TempDir()
	w := testWorkload(t, "cjpeg")
	open := func(reg *obs.Registry) *store.Store {
		t.Helper()
		s, err := store.Open(dir, store.Options{Reg: reg})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}

	reg1 := obs.NewRegistry()
	e1 := New(Options{MaxDyn: testMaxDyn, Persist: open(reg1), Reg: reg1})
	if _, _, err := e1.Evaluate(w, cores.OOO2, nil); err != nil {
		t.Fatal(err)
	}
	if reg1.Counter("store.writes").Value() == 0 {
		t.Fatal("first engine wrote nothing to the store")
	}

	changed := cores.OOO2
	changed.FrontendDepth++
	reg2 := obs.NewRegistry()
	e2 := New(Options{MaxDyn: testMaxDyn, Persist: open(reg2), Reg: reg2})
	cyc, nj, err := e2.Evaluate(w, changed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if hits := reg2.Counter("store.hits").Value(); hits != 0 {
		t.Errorf("changed core config hit %d entries persisted under the old one", hits)
	}
	if reg2.Counter("store.misses").Value() == 0 {
		t.Error("changed-config engine never consulted the store")
	}
	wantCyc, wantNJ, err := New(Options{MaxDyn: testMaxDyn}).Evaluate(w, changed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cyc != wantCyc || nj != wantNJ {
		t.Errorf("changed config through the store = (%d, %g), without = (%d, %g)", cyc, nj, wantCyc, wantNJ)
	}
}
