package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"exocore/internal/dse"
	"exocore/internal/report"
	"exocore/internal/runner"
	"exocore/internal/workloads"
)

// pinnedJSON holds the results digests a correct sweep must reproduce,
// one per scale. Regenerate only for a change that is meant to alter
// the sweep's results.
//
//go:embed pinned.json
var pinnedJSON []byte

func pinnedDigest(name string) (string, error) {
	var m map[string]string
	if err := json.Unmarshal(pinnedJSON, &m); err != nil {
		return "", fmt.Errorf("pinned.json: %w", err)
	}
	d, ok := m[name]
	if !ok {
		return "", fmt.Errorf("pinned.json has no digest %q", name)
	}
	return d, nil
}

// resultsDigest is the SHA-256 of a result document's "results" array,
// as encoded.
func resultsDigest(doc []byte) (string, error) {
	var d struct {
		Schema  string          `json:"schema"`
		Results json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(doc, &d); err != nil {
		return "", fmt.Errorf("decode document: %w", err)
	}
	if d.Schema != report.Schema {
		return "", fmt.Errorf("schema %q, want %q", d.Schema, report.Schema)
	}
	return digest(d.Results), nil
}

func checkDigest(doc []byte, want string) error {
	got, err := resultsDigest(doc)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("results digest %s, pinned %s", got, want)
	}
	return nil
}

func sweepWorkloads(sc scale) ([]*workloads.Workload, error) {
	if sc.sweepBenches == nil {
		return workloads.All(), nil
	}
	var ws []*workloads.Workload
	for _, name := range sc.sweepBenches {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		ws = append(ws, w)
	}
	return ws, nil
}

// sweepDoc runs the full design grid over ws on eng and encodes the
// result document, as `dse -json` does.
func sweepDoc(ctx context.Context, eng *runner.Engine, ws []*workloads.Workload) ([]byte, error) {
	exp, err := dse.ExploreCtx(ctx, dse.Options{Engine: eng, Workloads: ws})
	if err != nil {
		return nil, err
	}
	doc := report.New("dse")
	exp.AppendTo(doc)
	var buf bytes.Buffer
	if err := doc.Write(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// runSweep is sweep-cold. Each round builds a fresh engine (set-up),
// sweeps the full grid cold, then sweeps it again warmRepeats times on
// the now-warm engine. A traced run follows each untraced cold sweep with a
// stage-by-stage replay of it (replay.go).
func runSweep(ctx context.Context, cfg config) (*outcome, error) {
	ws, err := sweepWorkloads(cfg.scale)
	if err != nil {
		return nil, err
	}
	want, err := pinnedDigest(cfg.scale.digest)
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	var setup, cold, warm, cpu []float64
	var layers []map[string]float64
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < cfg.seconds; round++ {
		t0 := time.Now()
		if err := preflight(ctx, cfg, ws); err != nil {
			return nil, fmt.Errorf("pre-flight sweep: %w", err)
		}
		eng := runner.New(runner.Options{MaxDyn: cfg.scale.maxDyn, Workers: cfg.workers})
		setup = append(setup, time.Since(t0).Seconds())

		c0, t1 := cpuTime(), time.Now()
		doc, err := sweepDoc(ctx, eng, ws)
		coldWall := time.Since(t1)
		if err != nil {
			return nil, fmt.Errorf("cold sweep: %w", err)
		}
		out.check("cold sweep", checkDigest(cfg.output(doc), want))
		cold = append(cold, ms(coldWall))

		if cfg.trace {
			m := engineLayerMetrics(eng)
			rp, err := replaySweep(ctx, cfg, ws)
			if err != nil {
				return nil, fmt.Errorf("replay: %w", err)
			}
			out.check("replay", checkDigest(cfg.output(rp.doc), want))
			out.check("replay closure", rp.closureErr())
			for k, v := range rp.metrics() {
				m[k] = v
			}
			m["replay.overhead_ms"] = ms(rp.wall - coldWall)
			layers = append(layers, m)
			if err := rp.writeSpans(cfg); err != nil {
				return nil, err
			}
			continue
		}

		// The warm sweep takes tens of milliseconds, less than one
		// collection of the cold sweep's heap; collect first and repeat
		// it, so that its samples measure the sweep and not the
		// collector's timing.
		runtime.GC()
		for i := 0; i < warmRepeats; i++ {
			t2 := time.Now()
			doc, err = sweepDoc(ctx, eng, ws)
			warmWall := time.Since(t2)
			if err != nil {
				return nil, fmt.Errorf("warm sweep: %w", err)
			}
			out.check("warm sweep", checkDigest(cfg.output(doc), want))
			warm = append(warm, ms(warmWall))
		}
		cpu = append(cpu, (cpuTime() - c0).Seconds())
	}
	out.extra["rounds"] = float64(len(cold))
	out.extra["benches"] = float64(len(ws))
	out.extra["max_dyn"] = float64(cfg.scale.maxDyn)
	out.extra["workers"] = float64(cfg.workers)
	if cfg.trace {
		out.extra["untraced_cold_ms"] = median(cold)
		out.metrics = medianMetrics(layers)
		return out, nil
	}
	out.metrics["setup_s"] = median(setup)
	out.metrics["cold_ms"] = median(cold)
	out.metrics["warm_ms"] = median(warm)
	out.metrics["cpu_s"] = median(cpu)
	return out, nil
}

// warmRepeats is how many times each round repeats the warm sweep.
const warmRepeats = 10

// preflightMaxDyn is the instruction budget of the pre-flight sweep.
const preflightMaxDyn = 2000

// preflight is sweep-cold's set-up. "Cold" means a fresh engine (no
// memoized traces, contexts, evaluations or unit outcomes), not a fresh
// process: a collection returns the heap to the state the first round
// found, and a small sweep of the same grid on a throwaway engine runs
// every code path once (lazily built tables, pages of code), so that
// each timed sweep starts from the same state.
func preflight(ctx context.Context, cfg config, ws []*workloads.Workload) error {
	runtime.GC()
	eng := runner.New(runner.Options{MaxDyn: preflightMaxDyn, Workers: cfg.workers})
	_, err := sweepDoc(ctx, eng, ws)
	return err
}

// engineLayerMetrics reads the runner and unit-cache counters of an
// engine that has run one cold sweep.
func engineLayerMetrics(eng *runner.Engine) map[string]float64 {
	m := eng.Metrics()
	out := map[string]float64{}
	if ev := m.Stage(runner.StageEval); ev.Calls > 0 {
		out["runner.eval_hit_ratio"] = float64(ev.Hits) / float64(ev.Calls)
	}
	out["runner.sched_misses"] = float64(m.Stage(runner.StageSched).Misses)
	return out
}

// medianMetrics takes each metric's median over the rounds of a run.
func medianMetrics(rounds []map[string]float64) map[string]float64 {
	vals := map[string][]float64{}
	for _, r := range rounds {
		for k, v := range r {
			vals[k] = append(vals[k], v)
		}
	}
	out := map[string]float64{}
	for k, vs := range vals {
		out[k] = median(vs)
	}
	return out
}
