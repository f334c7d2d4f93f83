package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"exocore/internal/bsa"
	"exocore/internal/cores"
	"exocore/internal/dse"
	"exocore/internal/exocore"
	"exocore/internal/report"
	"exocore/internal/runner"
	"exocore/internal/sched"
	"exocore/internal/tdg"
	"exocore/internal/trace"
	"exocore/internal/workloads"
)

// Layer span names. Each is one public call (or one call plus the
// energy model applied to its result), timed from outside.
const (
	layTrace    = "workloads.trace"  // Workload.Source + trace.Materialize
	layTDG      = "tdg.build"        // tdg.Build
	layAnalyze  = "bsa.analyze"      // tdg.BSA.Analyze, one per registry entry
	layBaseline = "exocore.baseline" // exocore.Run with no assignment + EnergyOf
	laySolo     = "exocore.solo"     // exocore.Run per (BSA, loop) candidate + EnergyOf
	laySelect   = "sched.select"     // sched.Context.Oracle
	layEvaluate = "sched.evaluate"   // sched.Context.Evaluate
	layEncode   = "report.encode"    // dse shell + Document.Write
)

// closureSlack is how much of a replay lane's wall time may fall outside
// layer spans (claiming work, memo lookups, collecting results) before
// the trace is judged not to account for where the time went.
const closureSlack = 0.03

// span is one timed layer call on one lane.
type span struct {
	layer      string
	start, end time.Duration // since the replay started
}

// lanes records spans per worker lane. Each lane appends only to its
// own slice; the slices are read after every lane has finished.
type lanes struct {
	t0    time.Time
	drop  string
	spans [][]span
	// busy is each lane's wall time spent claiming and doing work,
	// summed over the replay's phases (barrier waits excluded).
	busy []time.Duration
}

func (l *lanes) do(lane int, layer string, fn func() error) error {
	start := time.Since(l.t0)
	err := fn()
	if layer != l.drop {
		l.spans[lane] = append(l.spans[lane], span{layer: layer, start: start, end: time.Since(l.t0)})
	}
	return err
}

// phase runs fn(lane, i) for i in [0, n) on every lane, each lane
// claiming the next index, and adds each lane's busy time.
func (l *lanes) phase(ctx context.Context, n int, fn func(lane, i int) error) error {
	var next atomic.Int64
	next.Store(-1)
	errs := make([]error, len(l.spans))
	var wg sync.WaitGroup
	for lane := range l.spans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			begin := time.Now()
			defer func() { l.busy[lane] += time.Since(begin) }()
			for {
				i := int(next.Add(1))
				if i >= n || ctx.Err() != nil {
					return
				}
				if err := fn(lane, i); err != nil {
					errs[lane] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}

// replay is the outcome of one stage-by-stage sweep.
type replay struct {
	doc   []byte
	wall  time.Duration
	lanes *lanes
	// counts and instruction totals per layer, for the per-layer ratios.
	insts       map[string]int64
	solos       int
	evaluations int
	unitStats   exocore.CacheStats
}

// replaySweep re-runs sweep-cold's work stage by stage through the same
// public calls the engine makes, on cfg.workers lanes: every workload's
// trace and TDG first, then per (workload, core) cell the BSA plans,
// the baseline and each candidate solo (what sched.NewContextWith
// does), then the cell's share of the design grid (Oracle selection and
// each distinct assignment's evaluation), and last the report encode.
// It must reproduce the engine sweep's results byte for byte.
func replaySweep(ctx context.Context, cfg config, ws []*workloads.Workload) (*replay, error) {
	reg := bsa.Default()
	shell, err := dse.NewShell(reg, nil, nil)
	if err != nil {
		return nil, err
	}
	ln := &lanes{t0: time.Now(), drop: cfg.dropLayer,
		spans: make([][]span, cfg.workers), busy: make([]time.Duration, cfg.workers)}
	rp := &replay{lanes: ln, insts: map[string]int64{}}
	var instMu sync.Mutex
	addInsts := func(layer string, n int) {
		instMu.Lock()
		rp.insts[layer] += int64(n)
		instMu.Unlock()
	}

	// Phase 1: traces and TDGs.
	tdgs := make([]*tdg.TDG, len(ws))
	maxDyn := cfg.scale.maxDyn
	err = ln.phase(ctx, len(ws), func(lane, i int) error {
		var tr *trace.Trace
		if err := ln.do(lane, layTrace, func() (err error) {
			src := ws[i].Source(workloads.SourceConfig{MaxDyn: maxDyn})
			tr, err = trace.Materialize(src, min(maxDyn, 1<<16))
			return err
		}); err != nil {
			return fmt.Errorf("%s: trace: %w", ws[i].Name, err)
		}
		addInsts(layTrace, tr.Len())
		if err := ln.do(lane, layTDG, func() (err error) {
			tdgs[i], err = tdg.Build(tr)
			return err
		}); err != nil {
			return fmt.Errorf("%s: tdg: %w", ws[i].Name, err)
		}
		addInsts(layTDG, tr.Len())
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Phase 2: per (workload, core) cell, the scheduling context and the
	// cell's share of the design grid.
	type cellResult struct {
		design string
		res    dse.BenchResult
	}
	cs := cores.Configs
	cells := make([][]cellResult, len(ws)*len(cs))
	caches := make([]*exocore.Cache, len(cells))
	var solos, evals atomic.Int64
	err = ln.phase(ctx, len(cells), func(lane, ci int) error {
		w, core, t := ws[ci/len(cs)], cs[ci%len(cs)], tdgs[ci/len(cs)]
		sc, err := replayContext(ln, lane, t, core, reg)
		if err != nil {
			return fmt.Errorf("%s/%s: %w", w.Name, core.Name, err)
		}
		caches[ci] = sc.Cache
		solos.Add(int64(len(sc.Candidates)))
		addInsts(layBaseline, t.Trace.Len())
		addInsts(laySolo, len(sc.Candidates)*t.Trace.Len())

		type eval struct {
			cycles int64
			energy float64
		}
		memo := map[string]eval{}
		for _, d := range shell.Designs {
			if d.Core.Name != core.Name {
				continue
			}
			var assign exocore.Assignment
			ln.do(lane, laySelect, func() error {
				assign = sc.Oracle(d.BSAs)
				return nil
			})
			key := runner.AssignmentKey(assign)
			ev, ok := memo[key]
			if !ok {
				if err := ln.do(lane, layEvaluate, func() (err error) {
					ev.cycles, ev.energy, err = sc.Evaluate(assign)
					return err
				}); err != nil {
					return fmt.Errorf("%s %s: evaluate: %w", w.Name, d.Code, err)
				}
				memo[key] = ev
				evals.Add(1)
				addInsts(layEvaluate, t.Trace.Len())
			}
			cells[ci] = append(cells[ci], cellResult{design: d.Code, res: dse.BenchResult{
				Bench: w.Name, Category: w.Category, Cycles: ev.cycles, EnergyNJ: ev.energy}})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rp.solos, rp.evaluations = int(solos.Load()), int(evals.Load())
	for _, c := range caches {
		s := c.Stats()
		rp.unitStats.Hits += s.Hits
		rp.unitStats.Misses += s.Misses
		rp.unitStats.SharedHits += s.SharedHits
		rp.unitStats.PrefixEntries += s.PrefixEntries
	}

	// Phase 3: assemble and encode, on lane 0.
	var buf bytes.Buffer
	encStart := time.Now()
	err = ln.do(0, layEncode, func() error {
		for _, cell := range cells {
			for _, r := range cell {
				if err := shell.AddBench(r.design, r.res); err != nil {
					return err
				}
			}
		}
		shell.Normalize()
		doc := report.New("dse")
		shell.AppendTo(doc)
		return doc.Write(&buf)
	})
	ln.busy[0] += time.Since(encStart)
	if err != nil {
		return nil, err
	}
	rp.wall = time.Since(ln.t0)
	rp.doc = buf.Bytes()
	return rp, nil
}

// replayContext builds one (TDG, core) scheduling context the way
// sched.NewContextWith does, with each stage timed on its own: plans
// for every registered BSA, the baseline run, then every candidate solo
// in (BSA name, loop) order, all sharing one unit cache.
func replayContext(ln *lanes, lane int, t *tdg.TDG, core cores.Config, reg *bsa.Registry) (*sched.Context, error) {
	bsas := reg.New()
	names := reg.Names()
	sort.Strings(names)
	sc := &sched.Context{TDG: t, Core: core, BSAs: bsas, Plans: map[string]*tdg.Plan{},
		Cache: exocore.NewCache(core, t.Trace.Len())}
	for _, name := range names {
		ln.do(lane, layAnalyze, func() error {
			sc.Plans[name] = bsas[name].Analyze(t)
			return nil
		})
	}
	if err := ln.do(lane, layBaseline, func() error {
		base, err := exocore.Run(t, core, bsas, sc.Plans, nil, exocore.RunOpts{Cache: sc.Cache})
		if err != nil {
			return err
		}
		sc.BaseCycles = base.Cycles
		sc.BaseEnergyNJ = exocore.EnergyOf(base, core, bsas).TotalNJ()
		return nil
	}); err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	for _, name := range names {
		loops := make([]int, 0, len(sc.Plans[name].Regions))
		for l := range sc.Plans[name].Regions {
			loops = append(loops, l)
		}
		sort.Ints(loops)
		for _, l := range loops {
			if err := ln.do(lane, laySolo, func() error {
				res, err := exocore.Run(t, core, bsas, sc.Plans, exocore.Assignment{l: name},
					exocore.RunOpts{Cache: sc.Cache})
				if err != nil {
					return err
				}
				sc.Candidates = append(sc.Candidates, sched.Candidate{
					LoopID: l, BSA: name, Cycles: res.Cycles,
					EnergyNJ:   exocore.EnergyOf(res, core, bsas).TotalNJ(),
					EstSpeedup: sc.Plans[name].Regions[l].EstSpeedup,
				})
				return nil
			}); err != nil {
				return nil, fmt.Errorf("candidate %s@L%d: %w", name, l, err)
			}
		}
	}
	return sc, nil
}

// layerTotals sums span time per layer over every lane.
func (rp *replay) layerTotals() map[string]time.Duration {
	tot := map[string]time.Duration{}
	for _, lane := range rp.lanes.spans {
		for _, s := range lane {
			tot[s.layer] += s.end - s.start
		}
	}
	return tot
}

// closure returns the smallest share of a lane's busy time that its
// layer spans cover. Spans on one lane never overlap, so a layer's
// self time is its span time.
func (rp *replay) closure() float64 {
	floor := 1.0
	for lane, spans := range rp.lanes.spans {
		var covered time.Duration
		for _, s := range spans {
			covered += s.end - s.start
		}
		if busy := rp.lanes.busy[lane]; busy > 0 {
			floor = min(floor, float64(covered)/float64(busy))
		}
	}
	return floor
}

func (rp *replay) closureErr() error {
	if c := rp.closure(); c < 1-closureSlack {
		return fmt.Errorf("layer spans cover %.2f%% of the slowest-covered lane, want >= %.0f%%",
			100*c, 100*(1-closureSlack))
	}
	return nil
}

// metrics derives the replay's per-layer metrics.
func (rp *replay) metrics() map[string]float64 {
	tot := rp.layerTotals()
	perInst := func(layer string) float64 {
		if n := rp.insts[layer]; n > 0 {
			return float64(tot[layer]) / float64(n)
		}
		return 0
	}
	m := map[string]float64{
		"workloads.trace_ms":           ms(tot[layTrace]),
		"workloads.ns_per_inst":        perInst(layTrace),
		"tdg.build_ms":                 ms(tot[layTDG]),
		"tdg.ns_per_inst":              perInst(layTDG),
		"bsa.analyze_ms":               ms(tot[layAnalyze]),
		"exocore.baseline_ms":          ms(tot[layBaseline]),
		"exocore.baseline_ns_per_inst": perInst(layBaseline),
		"exocore.solo_ms":              ms(tot[laySolo]),
		"exocore.solos":                float64(rp.solos),
		"exocore.solo_ns_per_inst":     perInst(laySolo),
		"exocore.shared_hits":          float64(rp.unitStats.SharedHits),
		"exocore.prefix_entries":       float64(rp.unitStats.PrefixEntries),
		"sched.select_ms":              ms(tot[laySelect]),
		"sched.evaluate_ms":            ms(tot[layEvaluate]),
		"sched.evaluations":            float64(rp.evaluations),
		"report.encode_ms":             ms(tot[layEncode]),
		"report.bytes":                 float64(len(rp.doc)),
		"replay.closure":               rp.closure(),
	}
	if n := rp.unitStats.Hits + rp.unitStats.Misses; n > 0 {
		m["exocore.unit_hit_ratio"] = float64(rp.unitStats.Hits) / float64(n)
	}
	return m
}

// writeSpans writes the replay's spans as a Chrome trace-event file
// (one thread per lane) once the replay has ended.
func (rp *replay) writeSpans(cfg config) error {
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		TS   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		PID  int     `json:"pid"`
		TID  int     `json:"tid"`
	}
	var evs []event
	for lane, spans := range rp.lanes.spans {
		for _, s := range spans {
			evs = append(evs, event{Name: s.layer, Ph: "X", PID: 1, TID: lane,
				TS: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3})
		}
	}
	b, err := json.Marshal(evs)
	if err != nil {
		return err
	}
	path := filepath.Join(cfg.dir, fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed))
	return os.WriteFile(path, b, 0o644)
}
