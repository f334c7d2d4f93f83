// Package sched implements BSA selection for ExoCores: the Oracle
// scheduler that picks the best accelerator per static region from
// measured execution characteristics with an energy-delay metric and a
// 10% performance-loss guard (paper §4), and the Amdahl-Tree scheduler
// that composes approximate per-region speedup estimates bottom-up over
// the loop nest (paper §3.3, Figure 9).
package sched

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"exocore/internal/cores"
	"exocore/internal/exocore"
	"exocore/internal/obs"
	"exocore/internal/panics"
	"exocore/internal/tdg"
)

// Candidate is one measured (loop, BSA) acceleration option.
type Candidate struct {
	LoopID int
	BSA    string
	// Cycles and EnergyNJ are whole-benchmark totals with only this
	// region assigned ("past execution characteristics").
	Cycles   int64
	EnergyNJ float64
	// EstSpeedup is the analyzer's static estimate (Amdahl tree input).
	EstSpeedup float64
}

// Context holds everything needed to schedule one benchmark on one core:
// plans, baseline measurements and per-candidate solo measurements.
type Context struct {
	TDG   *tdg.TDG
	Core  cores.Config
	BSAs  map[string]tdg.BSA
	Plans map[string]*tdg.Plan

	// Cache memoizes evaluation-unit outcomes across every Run this
	// context issues (baseline, per-candidate solos, and Evaluate calls
	// for full designs). NewContextWith always creates it; a hand-built
	// context with a nil Cache evaluates uncached.
	Cache *exocore.Cache

	BaseCycles   int64
	BaseEnergyNJ float64
	// Candidates lists the solo measurements in (BSA name, loop) order.
	// A hand-built context fills it in and Oracle reads it as is. A
	// NewContextWith context measures candidates on demand (see Measure)
	// and sets Candidates once every BSA is measured.
	Candidates []Candidate

	reg   *obs.Registry
	solos *solos // nil on a hand-built context
}

// solos is the demand-driven candidate state of a NewContextWith
// context: which BSAs have their solos measured, and which are being
// measured right now.
type solos struct {
	workers int
	names   []string // every BSA of the context, sorted

	// all is set once every BSA is measured, after Context.Candidates
	// holds the complete list: from then on Oracle reads Candidates
	// without locking.
	all atomic.Bool

	mu       sync.Mutex
	measured map[string][]Candidate // per BSA, in loop order
	flights  map[string]*flight     // measurements in progress
}

// flight is one BSA's measurement in progress; err is set before done
// closes.
type flight struct {
	done chan struct{}
	err  error
}

// ContextOpts tunes context construction.
type ContextOpts struct {
	// Reg, when non-nil, receives evaluation metrics (segment-length
	// histogram, per-BSA offload counters) from every Run this context
	// issues, including later Measure and Evaluate calls.
	Reg *obs.Registry
	// Span, when active, parents the baseline measurement's run span.
	// Inert spans cost a nil check.
	Span obs.Span
	// Workers bounds the number of candidate solo measurements one
	// Measure call runs concurrently. Values <= 1 measure one at a time.
	Workers int
	// Persist, when non-nil, attaches a durable unit-outcome store under
	// the context's cache, namespaced by PersistNS (which must uniquely
	// identify the (trace, core, BSA set) tuple across restarts — see
	// exocore.Cache.AttachPersist).
	Persist   exocore.Persist
	PersistNS string
}

// NewContext analyzes the TDG with every BSA and measures the baseline.
// Candidate solos are measured on demand (see Measure).
func NewContext(t *tdg.TDG, core cores.Config, bsas map[string]tdg.BSA) (*Context, error) {
	return NewContextWith(t, core, bsas, ContextOpts{})
}

// NewContextWith is NewContext with explicit options.
func NewContextWith(t *tdg.TDG, core cores.Config, bsas map[string]tdg.BSA, opts ContextOpts) (*Context, error) {
	ctx := &Context{TDG: t, Core: core, BSAs: bsas, Plans: make(map[string]*tdg.Plan), reg: opts.Reg,
		Cache: exocore.NewCache(core, t.Trace.Len())}
	if opts.Persist != nil {
		ctx.Cache.AttachPersist(opts.Persist, opts.PersistNS)
	}
	s := &solos{workers: opts.Workers, measured: make(map[string][]Candidate), flights: make(map[string]*flight)}
	for name, b := range bsas {
		ctx.Plans[name] = b.Analyze(t)
		s.names = append(s.names, name)
	}
	sort.Strings(s.names)
	ctx.solos = s
	bsp := obs.Span{}
	if opts.Span.Active() {
		bsp = opts.Span.Child("run", "baseline")
	}
	base, err := exocore.Run(t, core, bsas, ctx.Plans, nil,
		exocore.RunOpts{Cache: ctx.Cache, Span: bsp, Reg: opts.Reg})
	bsp.End()
	if err != nil {
		return nil, fmt.Errorf("sched: baseline: %w", err)
	}
	ctx.BaseCycles = base.Cycles
	ctx.BaseEnergyNJ = exocore.EnergyOf(base, core, bsas).TotalNJ()
	return ctx, nil
}

// Measure runs the candidate solos (one per planned loop) of every named
// BSA not measured yet and returns how many solos it ran. Names outside
// the context's BSA set are ignored, and so is every call on a
// hand-built context.
//
// Each BSA is measured once per context: a call that finds a BSA's
// measurement in flight waits for it. A measurement that fails, panics
// or is canceled is not kept, so the next call runs it again; a waiter
// whose flight was canceled under it measures the BSA itself. Solos run
// on up to ContextOpts.Workers goroutines and land in (BSA name, loop)
// order whatever their completion order. With tr non-nil, each worker
// opens a top-level span named span through tr.BeginCtx — its own trace
// lane, tagged with ctx's request ID — and nests its solo runs under it.
// A done ctx stops workers from starting further solos.
func (c *Context) Measure(ctx context.Context, names []string, tr *obs.Tracer, span string) (int, error) {
	s := c.solos
	if s == nil || s.all.Load() {
		return 0, nil
	}
	ran := 0
	for {
		mine, wait := s.claim(c.BSAs, names)
		if len(mine) > 0 {
			n, err := c.measure(ctx, mine, tr, span)
			ran += n
			if err != nil {
				return ran, err
			}
		}
		retry := false
		for _, f := range wait {
			select {
			case <-f.done:
			case <-ctx.Done():
				return ran, ctx.Err()
			}
			if f.err != nil {
				if !canceled(f.err) || ctx.Err() != nil {
					return ran, f.err
				}
				retry = true
			}
		}
		if !retry {
			return ran, nil
		}
	}
}

func canceled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// claim splits names into the BSAs this caller must measure (sorted,
// each now owning a flight) and the flights of BSAs another caller is
// measuring.
func (s *solos) claim(bsas map[string]tdg.BSA, names []string) (mine []string, wait []*flight) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, name := range names {
		if _, ok := bsas[name]; !ok {
			continue
		}
		if _, ok := s.measured[name]; ok {
			continue
		}
		if f := s.flights[name]; f != nil {
			wait = append(wait, f)
			continue
		}
		s.flights[name] = &flight{done: make(chan struct{})}
		mine = append(mine, name)
	}
	sort.Strings(mine)
	return mine, wait
}

// measure runs the solos of the claimed BSAs, records the BSAs whose
// solos all succeeded, releases every claimed flight and returns the
// number of solos run plus the first error in (BSA name, loop) order.
func (c *Context) measure(ctx context.Context, mine []string, tr *obs.Tracer, span string) (int, error) {
	type job struct {
		name string
		loop int
	}
	var jobs []job
	first := make([]int, len(mine)+1) // mine[i]'s jobs are jobs[first[i]:first[i+1]]
	for i, name := range mine {
		first[i] = len(jobs)
		var loops []int
		for l := range c.Plans[name].Regions {
			loops = append(loops, l)
		}
		sort.Ints(loops)
		for _, l := range loops {
			jobs = append(jobs, job{name: name, loop: l})
		}
	}
	first[len(mine)] = len(jobs)

	results := make([]Candidate, len(jobs))
	errs := make([]error, len(jobs))
	var next, ran atomic.Int64
	workers := min(max(c.solos.workers, 1), len(jobs))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		// Begun here, so every worker's lane is open before any work
		// starts and concurrent workers never share one.
		lane := tr.BeginCtx(ctx, "stage", span)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer lane.End()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				ran.Add(1)
				j := jobs[i]
				sp := lane.Child("run", "candidate "+j.name+"@L"+strconv.Itoa(j.loop))
				results[i], errs[i] = c.solo(j.name, j.loop, sp)
				sp.End()
			}
		}()
	}
	wg.Wait()

	var firstErr error
	s := c.solos
	flights := make([]*flight, len(mine))
	s.mu.Lock()
	for i, name := range mine {
		f := s.flights[name]
		flights[i] = f
		delete(s.flights, name)
		for _, err := range errs[first[i]:first[i+1]] {
			if err != nil {
				f.err = err
				break
			}
		}
		if f.err == nil {
			s.measured[name] = results[first[i]:first[i+1]:first[i+1]]
		} else if firstErr == nil {
			firstErr = f.err
		}
	}
	if len(s.measured) == len(s.names) {
		var all []Candidate
		for _, name := range s.names {
			all = append(all, s.measured[name]...)
		}
		c.Candidates = all
		s.all.Store(true)
	}
	s.mu.Unlock()
	for _, f := range flights {
		close(f.done)
	}
	return int(ran.Load()), firstErr
}

// solo measures one candidate: the whole benchmark with only loop
// assigned to the named BSA. A panicking model fails the measurement,
// not the process.
func (c *Context) solo(name string, loop int, sp obs.Span) (_ Candidate, err error) {
	defer panics.Recover(&err)
	res, err := exocore.Run(c.TDG, c.Core, c.BSAs, c.Plans,
		exocore.Assignment{loop: name},
		exocore.RunOpts{Cache: c.Cache, Span: sp, Reg: c.reg})
	if err != nil {
		return Candidate{}, fmt.Errorf("sched: candidate %s@L%d: %w", name, loop, err)
	}
	return Candidate{
		LoopID: loop, BSA: name,
		Cycles:     res.Cycles,
		EnergyNJ:   exocore.EnergyOf(res, c.Core, c.BSAs).TotalNJ(),
		EstSpeedup: c.Plans[name].Regions[loop].EstSpeedup,
	}, nil
}

// candidates returns the solo measurements Oracle draws from. A
// hand-built context's Candidates are used as filled in. On a
// NewContextWith context every BSA of avail is measured first; a
// measurement failure panics, since Oracle cannot return it — callers
// that need the error call Measure first.
func (c *Context) candidates(avail []string) []Candidate {
	s := c.solos
	if s == nil || s.all.Load() {
		return c.Candidates
	}
	if _, err := c.Measure(context.Background(), avail, nil, ""); err != nil {
		panic(err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Candidate
	for _, name := range s.names {
		out = append(out, s.measured[name]...)
	}
	return out
}

// PerfLossGuard is the maximum region-level slowdown the Oracle accepts
// (paper §4: "no individual region should reduce the performance by more
// than 10%").
const PerfLossGuard = 0.10

// Oracle returns the energy-delay-optimal assignment drawing only from
// the available BSA subset, resolved hierarchically over the loop forest
// (a region choice covers its nested loops). On a NewContextWith context
// it first measures any BSA of avail not measured yet, and panics if
// that fails; once every BSA is measured it neither locks nor measures.
func (c *Context) Oracle(avail []string) exocore.Assignment {
	availSet := make(map[string]bool, len(avail))
	for _, a := range avail {
		availSet[a] = true
	}
	baseEDP := float64(c.BaseCycles) * c.BaseEnergyNJ

	// Best candidate gain per loop.
	type choice struct {
		bsa  string
		gain float64
	}
	bestAt := make(map[int]choice)
	for _, cand := range c.candidates(avail) {
		if !availSet[cand.BSA] {
			continue
		}
		// Perf guard: the solo slowdown must not exceed 10% of the
		// region's share of baseline time.
		regionBase := float64(c.BaseCycles) * c.TDG.Prof.LoopShare(cand.LoopID)
		if float64(cand.Cycles-c.BaseCycles) > PerfLossGuard*regionBase {
			continue
		}
		gain := baseEDP - float64(cand.Cycles)*cand.EnergyNJ
		if gain <= 0 {
			continue
		}
		if cur, ok := bestAt[cand.LoopID]; !ok || gain > cur.gain {
			bestAt[cand.LoopID] = choice{bsa: cand.BSA, gain: gain}
		}
	}

	// Tree DP: for each loop take max(own best assignment, sum of
	// children's best solutions).
	assign := exocore.Assignment{}
	var solve func(loop int) float64
	solve = func(loop int) float64 {
		childSum := 0.0
		for _, ch := range c.TDG.Nest.Loops[loop].Children {
			childSum += solve(ch)
		}
		own, ok := bestAt[loop]
		if ok && own.gain > childSum {
			// Claim this loop; release any descendant assignments.
			c.clearSubtree(assign, loop)
			assign[loop] = own.bsa
			return own.gain
		}
		return childSum
	}
	for _, root := range c.TDG.Nest.Roots {
		solve(root)
	}
	return assign
}

func (c *Context) clearSubtree(assign exocore.Assignment, loop int) {
	for _, ch := range c.TDG.Nest.Loops[loop].Children {
		delete(assign, ch)
		c.clearSubtree(assign, ch)
	}
}

// AmdahlTree returns the assignment a profile-guided compiler would pick
// without oracle measurements (it never measures a solo): each loop
// node carries estimated per-BSA speedups, and a bottom-up traversal
// applies Amdahl's law at each node to decide whether to claim the whole
// subtree for one BSA or keep the children's choices (paper Figure 9).
func (c *Context) AmdahlTree(avail []string) exocore.Assignment {
	availSet := make(map[string]bool, len(avail))
	for _, a := range avail {
		availSet[a] = true
	}
	// Best estimated speedup per loop.
	type est struct {
		bsa     string
		speedup float64
	}
	bestAt := make(map[int]est)
	// Visit plans in sorted-name order so exact EstSpeedup ties break the
	// same way every run (map iteration order would pick an arbitrary
	// winner).
	var planNames []string
	for name := range c.Plans {
		if availSet[name] {
			planNames = append(planNames, name)
		}
	}
	sort.Strings(planNames)
	for _, name := range planNames {
		for l, r := range c.Plans[name].Regions {
			if cur, ok := bestAt[l]; !ok || r.EstSpeedup > cur.speedup {
				bestAt[l] = est{bsa: name, speedup: r.EstSpeedup}
			}
		}
	}

	assign := exocore.Assignment{}
	// solve returns the estimated time of the loop's subtree (in units
	// of baseline execution share).
	var solve func(loop int) float64
	solve = func(loop int) float64 {
		total := c.TDG.Prof.LoopShare(loop)
		childTime := 0.0
		childShare := 0.0
		for _, ch := range c.TDG.Nest.Loops[loop].Children {
			childTime += solve(ch)
			childShare += c.TDG.Prof.LoopShare(ch)
		}
		local := total - childShare
		if local < 0 {
			local = 0
		}
		timeChildren := local + childTime
		own, ok := bestAt[loop]
		// The scheduler is deliberately over-calibrated towards using
		// BSAs rather than the general core (§5.4): offload is accepted
		// even when the estimate is slightly unfavorable, because the
		// energy savings usually pay for it.
		const bsaBias = 1.10
		if ok && own.speedup > 0 {
			timeOwn := total / own.speedup
			if timeOwn < timeChildren*bsaBias {
				c.clearSubtree(assign, loop)
				assign[loop] = own.bsa
				return timeOwn
			}
		}
		return timeChildren
	}
	for _, root := range c.TDG.Nest.Roots {
		solve(root)
	}
	return assign
}

// Evaluate runs the benchmark under an assignment and returns cycles and
// total energy.
func (c *Context) Evaluate(assign exocore.Assignment) (int64, float64, error) {
	return c.EvaluateSpan(assign, obs.Span{})
}

// EvaluateSpan is Evaluate attached to a caller's trace span: when sp is
// active the run's per-unit spans nest under it; metrics go to the
// registry the context was created with either way.
func (c *Context) EvaluateSpan(assign exocore.Assignment, sp obs.Span) (int64, float64, error) {
	res, err := exocore.Run(c.TDG, c.Core, c.BSAs, c.Plans, assign,
		exocore.RunOpts{Cache: c.Cache, Span: sp, Reg: c.reg})
	if err != nil {
		return 0, 0, err
	}
	return res.Cycles, exocore.EnergyOf(res, c.Core, c.BSAs).TotalNJ(), nil
}
