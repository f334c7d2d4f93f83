package exocore

import (
	"exocore/internal/cores"
	"exocore/internal/obs"
	"exocore/internal/trace"
)

// RunStream evaluates a chunked trace source on the general core — the
// streaming arm of Run for the baseline (empty assignment) design point.
// It consumes the source chunk by chunk, decoding and executing each
// dynamic instruction through the same GPP constructor and
// window-compaction protocol as evalUnit's general-core arm, so on the
// same instruction stream the result is byte-identical to
// Run(td, core, nil, nil, nil, opts) at every chunk size: chunk
// boundaries only change when CompactWindow runs, and compaction never
// changes node times (see cores.GPP.CompactWindow). Peak memory is
// O(chunk + window) — the whole point: a 200M-instruction trace
// evaluates without ever existing as an array.
//
// Only the baseline streams: BSA analyzers and transforms take random
// access to the materialized trace, so assigned design points go
// through Run. opts.Cache, RecordSegments and RecordRegions do not
// apply; Span and Reg are honored (the "dg.graph_high_water_bytes"
// and "trace.chunk_high_water_bytes" gauges, and the
// "eval.segment_len" histogram).
func RunStream(src trace.Source, core cores.Config, opts RunOpts) (*RunResult, error) {
	w := acquireWorker(core, maxGraphHint, nil)
	defer releaseWorker(core, w)

	window := opts.WindowNodes
	if window == 0 {
		window = DefaultWindowNodes
	}
	if window < 0 {
		window = 0
	}
	if opts.Reg != nil {
		defer func() {
			opts.Reg.Gauge("dg.graph_high_water_bytes").SetMax(w.g.HighWaterBytes())
			if acc, ok := src.(trace.ChunkAccounting); ok {
				opts.Reg.Gauge("trace.chunk_high_water_bytes").SetMax(acc.ChunkHighWaterBytes())
			}
		}()
	}

	w.reset(false)
	p := src.Prog()
	total := 0
	for {
		c, ok := src.Next()
		if !ok {
			break
		}
		insts := c.Insts
		base := c.Base
		for j := 0; j < len(insts); {
			lim := len(insts)
			if window > 0 {
				if l := j + compactStride; l < lim {
					lim = l
				}
			}
			for ; j < lim; j++ {
				d := &insts[j]
				w.gpp.Exec(cores.FromDyn(&p.Insts[d.SI], d), int32(base+j))
			}
			if window > 0 {
				w.gpp.CompactWindow(window)
			}
		}
		total += len(insts)
		c.Release()
	}
	if err := src.Err(); err != nil {
		return nil, err
	}

	res := &RunResult{Models: make([]ModelStat, 0, 1)}
	if total > 0 {
		end := w.gpp.EndTime()
		st := res.stat("")
		st.Dyn = int64(total)
		st.Cycles = end
		st.Counts = w.counts
		res.Counts = w.counts
		res.Cycles = end
		if opts.Reg != nil {
			opts.Reg.Histogram("eval.segment_len", obs.DefaultSizeBounds).Observe(int64(total))
		}
	}
	return res, nil
}
