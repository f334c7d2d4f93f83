package sched

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"exocore/internal/bsa"
	"exocore/internal/cores"
	"exocore/internal/dg"
	"exocore/internal/exocore"
	"exocore/internal/obs"
	"exocore/internal/panics"
	"exocore/internal/tdg"
	"exocore/internal/workloads"
)

// defaultContext builds a five-model context for bench on core at the
// given budget, with the given solo-measurement worker bound.
func defaultContext(t *testing.T, bench string, core cores.Config, maxDyn, workers int) *Context {
	t.Helper()
	w, err := workloads.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := w.Trace(maxDyn)
	if err != nil {
		t.Fatal(err)
	}
	td, err := tdg.Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := NewContextWith(td, core, bsa.Default().New(), ContextOpts{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

// soloCount is the number of candidate solos the named BSAs plan.
func soloCount(c *Context, names ...string) int {
	n := 0
	for _, name := range names {
		n += len(c.Plans[name].Regions)
	}
	return n
}

// eagerCandidates measures every candidate the way a hand-built context
// is filled: serially, in (BSA name, loop) order, uncached.
func eagerCandidates(t *testing.T, c *Context) []Candidate {
	t.Helper()
	names := bsa.Default().Names()
	sort.Strings(names)
	var out []Candidate
	for _, name := range names {
		var loops []int
		for l := range c.Plans[name].Regions {
			loops = append(loops, l)
		}
		sort.Ints(loops)
		for _, l := range loops {
			res, err := exocore.Run(c.TDG, c.Core, c.BSAs, c.Plans, exocore.Assignment{l: name}, exocore.RunOpts{})
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, Candidate{LoopID: l, BSA: name, Cycles: res.Cycles,
				EnergyNJ:   exocore.EnergyOf(res, c.Core, c.BSAs).TotalNJ(),
				EstSpeedup: c.Plans[name].Regions[l].EstSpeedup})
		}
	}
	return out
}

// TestMeasureOnDemand: construction measures no solo, AmdahlTree
// measures none, Measure on a subset runs exactly that subset's solos
// once, and the fully measured context matches a serially measured,
// uncached candidate list — so every Oracle assignment is unchanged.
func TestMeasureOnDemand(t *testing.T) {
	c := defaultContext(t, "cjpeg", cores.OOO2, 20000, 2)
	if c.Candidates != nil {
		t.Fatalf("construction measured %d candidates", len(c.Candidates))
	}
	names := bsa.Default().Names()
	c.AmdahlTree(names)
	if n, err := c.Measure(context.Background(), nil, nil, ""); err != nil || n != 0 {
		t.Fatalf("Measure(nil) = %d, %v", n, err)
	}

	sub := []string{"SIMD", "NS-DF", "no-such-BSA"}
	n, err := c.Measure(context.Background(), sub, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	if want := soloCount(c, "SIMD", "NS-DF"); n != want || want == 0 {
		t.Errorf("Measure(%v) ran %d solos, want %d", sub, n, want)
	}
	if n, _ := c.Measure(context.Background(), sub, nil, ""); n != 0 {
		t.Errorf("repeat Measure ran %d solos, want 0", n)
	}
	if c.Candidates != nil {
		t.Error("Candidates set before every BSA was measured")
	}

	n, err = c.Measure(context.Background(), names, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	if want := soloCount(c, names...) - soloCount(c, "SIMD", "NS-DF"); n != want {
		t.Errorf("Measure(all) ran %d solos, want %d", n, want)
	}
	want := eagerCandidates(t, c)
	if !reflect.DeepEqual(c.Candidates, want) {
		t.Errorf("on-demand candidates differ from serial measurement:\n got %v\nwant %v", c.Candidates, want)
	}

	ref := &Context{TDG: c.TDG, Core: c.Core, BSAs: c.BSAs, Plans: c.Plans,
		BaseCycles: c.BaseCycles, BaseEnergyNJ: c.BaseEnergyNJ, Candidates: want}
	lazy := defaultContext(t, "cjpeg", cores.OOO2, 20000, 1)
	reg := bsa.Default()
	for mask := 0; mask < 1<<reg.Len(); mask++ {
		avail := reg.SubsetNames(mask)
		if got, want := lazy.Oracle(avail), ref.Oracle(avail); !reflect.DeepEqual(got, want) {
			t.Errorf("Oracle(%v) on demand = %v, eager = %v", avail, got, want)
		}
	}
}

// TestMeasureSingleflight: concurrent callers with overlapping subsets
// measure each BSA once between them.
func TestMeasureSingleflight(t *testing.T) {
	c := defaultContext(t, "cjpeg", cores.OOO2, 20000, 2)
	subsets := [][]string{{"SIMD", "DP-CGRA"}, {"DP-CGRA", "NS-DF"}, {"NS-DF", "SIMD"}, {"SIMD"}}
	ran := make([]int, len(subsets))
	var wg sync.WaitGroup
	for i, s := range subsets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n, err := c.Measure(context.Background(), s, nil, "")
			if err != nil {
				t.Error(err)
			}
			ran[i] = n
		}()
	}
	wg.Wait()
	total := 0
	for _, n := range ran {
		total += n
	}
	if want := soloCount(c, "SIMD", "DP-CGRA", "NS-DF"); total != want {
		t.Errorf("concurrent callers ran %d solos in all (%v), want %d", total, ran, want)
	}
}

// TestMeasureCanceledIsRerun: a canceled measurement fails its caller,
// keeps nothing, and the next call measures the BSA in full.
func TestMeasureCanceledIsRerun(t *testing.T) {
	c := defaultContext(t, "cjpeg", cores.OOO2, 20000, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	n, err := c.Measure(ctx, []string{"SIMD"}, nil, "")
	if !errors.Is(err, context.Canceled) || n != 0 {
		t.Fatalf("canceled Measure = %d, %v; want 0, context.Canceled", n, err)
	}
	n, err = c.Measure(context.Background(), []string{"SIMD"}, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	if want := soloCount(c, "SIMD"); n != want {
		t.Errorf("re-run measured %d solos, want %d", n, want)
	}
}

// panicModel wraps a model so every region transform panics.
type panicModel struct{ tdg.BSA }

func (panicModel) TransformRegion(*tdg.Ctx, *tdg.Region, int, int) dg.NodeID { panic("model fault") }

// TestMeasurePanicIsNotKept: a panicking model fails Measure with a
// *panics.Error (and a plain Oracle with a panic), every time — the
// failure is never cached as a measurement.
func TestMeasurePanicIsNotKept(t *testing.T) {
	c := defaultContext(t, "cjpeg", cores.OOO2, 20000, 2)
	c.BSAs["SIMD"] = panicModel{c.BSAs["SIMD"]}
	for i := 0; i < 2; i++ {
		if _, err := c.Measure(context.Background(), []string{"SIMD"}, nil, ""); !panics.Is(err) {
			t.Fatalf("attempt %d: Measure = %v, want a recovered panic", i, err)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Oracle skipped an unmeasurable BSA instead of panicking")
			}
		}()
		c.Oracle([]string{"SIMD"})
	}()
	// Other BSAs are unaffected.
	if _, err := c.Measure(context.Background(), []string{"NS-DF"}, nil, ""); err != nil {
		t.Fatal(err)
	}
}

// TestMeasureTracedRunsParallelLanes: under a tracer, Workers: 2 puts
// candidate runs on at least two trace lanes, each inside its worker's
// top-level span, and the trace validates.
func TestMeasureTracedRunsParallelLanes(t *testing.T) {
	c := defaultContext(t, "cjpeg", cores.OOO2, 20000, 2)
	tr := obs.NewTracer("sched-test")
	ctx := obs.WithRequestID(context.Background(), "req-1")
	if _, err := c.Measure(ctx, bsa.Default().Names(), tr, "solos cjpeg/OOO2"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := tr.WriteRequest(&buf, "req-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ValidateTrace(buf.Bytes()); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		TID  int32   `json:"tid"`
		TS   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
	}
	var events []event
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	workers := map[int32]event{}
	for _, ev := range events {
		if ev.Ph == "X" && ev.Name == "solos cjpeg/OOO2" {
			workers[ev.TID] = ev
		}
	}
	lanes := map[int32]bool{}
	cands := 0
	for _, ev := range events {
		if ev.Ph != "X" || !strings.HasPrefix(ev.Name, "candidate ") {
			continue
		}
		lanes[ev.TID] = true
		cands++
		if w, ok := workers[ev.TID]; !ok || ev.TS < w.TS || ev.TS+ev.Dur > w.TS+w.Dur {
			t.Errorf("%s on lane %d is not inside a worker span", ev.Name, ev.TID)
		}
	}
	if cands != soloCount(c, bsa.Default().Names()...) {
		t.Errorf("request trace holds %d candidate spans, want %d", cands, soloCount(c, bsa.Default().Names()...))
	}
	if len(lanes) < 2 {
		t.Errorf("candidate spans on %d lane(s), want >= 2", len(lanes))
	}
}

// TestConcurrentAttributedAndLeanRuns: attributed (RecordRegions) and
// lean runs of the same assignments racing on one unit cache must
// neither panic nor lose attribution. A lean winner of the cache's
// store race used to reach the attributed run's class loop without
// classes.
func TestConcurrentAttributedAndLeanRuns(t *testing.T) {
	c := defaultContext(t, "cjpeg", cores.OOO2, 20000, 2)
	reg := bsa.Default()
	n := 1 << reg.Len()
	assigns := make([]exocore.Assignment, n)
	want := make([]*exocore.RunResult, n)
	for mask := range assigns {
		assigns[mask] = c.Oracle(reg.SubsetNames(mask))
		res, err := exocore.Run(c.TDG, c.Core, c.BSAs, c.Plans, assigns[mask], exocore.RunOpts{RecordRegions: true})
		if err != nil {
			t.Fatal(err)
		}
		want[mask] = res
	}
	const goroutines, rounds = 4, 40
	for round := 0; round < rounds; round++ {
		cache := exocore.NewCache(c.Core, c.TDG.Trace.Len())
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				record := g%2 == 0
				for k := 0; k < n; k++ {
					i := (k + g*n/goroutines) % n
					res, err := runRecovered(c, assigns[i], cache, record)
					if err != nil {
						t.Errorf("round %d, %v (regions %t): %v", round, assigns[i], record, err)
						return
					}
					if res.Cycles != want[i].Cycles {
						t.Errorf("round %d, %v: %d cycles, serial %d", round, assigns[i], res.Cycles, want[i].Cycles)
					}
					if record && !reflect.DeepEqual(res.Regions, want[i].Regions) {
						t.Errorf("round %d, %v: attributed regions differ from a serial run", round, assigns[i])
					}
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			return
		}
	}
}

func runRecovered(c *Context, a exocore.Assignment, cache *exocore.Cache, record bool) (_ *exocore.RunResult, err error) {
	defer panics.Recover(&err)
	return exocore.Run(c.TDG, c.Core, c.BSAs, c.Plans, a, exocore.RunOpts{Cache: cache, RecordRegions: record})
}
