// Package bsautil holds machinery shared by the BSA transform models:
// splitting a region occurrence into loop iterations, and a configurable
// dataflow executor used by both the non-speculative dataflow (NS-DF) and
// trace-speculative (Trace-P) models, which differ mainly in control
// handling and structure sizes (paper §3.1, Table 2).
package bsautil

import (
	"sort"
	"sync"

	"exocore/internal/dg"
	"exocore/internal/energy"
	"exocore/internal/isa"
	"exocore/internal/tdg"
	"exocore/internal/trace"
)

// Iteration is a half-open dynamic-index range covering one loop
// iteration within a region occurrence.
type Iteration struct {
	Start, End int
}

// SplitIterations splits trace[start:end) into iterations of the given
// loop, detecting iteration boundaries at header-block entry. Any prefix
// before the first header entry is folded into the first iteration.
func SplitIterations(t *tdg.TDG, loopID, start, end int) []Iteration {
	if end <= start {
		return nil
	}
	// The TDG memoizes every loop's header-entry positions, so locating
	// this occurrence's boundaries is a binary search, not a trace scan.
	entries := t.HeaderEntries(loopID)
	lo := sort.Search(len(entries), func(k int) bool { return int(entries[k]) >= start })
	hi := lo + sort.Search(len(entries)-lo, func(k int) bool { return int(entries[lo+k]) >= end })
	bounds := entries[lo:hi]
	if len(bounds) > 0 {
		// The first header entry never splits: any prefix before it folds
		// into the first iteration.
		bounds = bounds[1:]
	}
	iters := make([]Iteration, 0, len(bounds)+1)
	cur := start
	for _, b := range bounds {
		iters = append(iters, Iteration{Start: cur, End: int(b)})
		cur = int(b)
	}
	return append(iters, Iteration{Start: cur, End: end})
}

// BlocksOf returns the distinct basic-block entry sequence of a dynamic
// range (the iteration's path).
func BlocksOf(t *tdg.TDG, start, end int) []int {
	return BlocksOfInto(nil, t, start, end)
}

// BlocksOfInto is BlocksOf building into buf (overwritten), so per-
// iteration callers can reuse one allocation.
func BlocksOfInto(buf []int, t *tdg.TDG, start, end int) []int {
	blocks := buf[:0]
	prev := -1
	prevSI := -1
	for i := start; i < end; i++ {
		si := int(t.Trace.Insts[i].SI)
		b := t.CFG.BlockOf[si]
		if b != prev || si <= prevSI {
			blocks = append(blocks, b)
			prev = b
		}
		prevSI = si
	}
	return blocks
}

// DataflowConfig parameterizes the dataflow executor.
type DataflowConfig struct {
	// IssueBandwidth is ops the CFU array can begin per cycle.
	IssueBandwidth int
	// BusBandwidth is result transfers per cycle on the writeback bus.
	BusBandwidth int
	// BusEvery books the bus for one of every N produced values: only
	// values consumed by a *different* compound unit traverse the bus,
	// approximated as a fixed fraction of results.
	BusEvery int
	// MemPorts is the accelerator's own cache interface width.
	MemPorts int
	// SerializeControl makes every op additionally depend on the last
	// resolved branch (non-speculative dataflow). When false the executor
	// runs the trace's resolved path speculatively (Trace-P).
	SerializeControl bool
	// ChainOps issues operations strictly in order (each op waits for the
	// previous op's issue): the serialized compound-FU execution style of
	// BERET and C-Cores, trading parallelism for energy.
	ChainOps bool
	// OpsPerCompound is the average compound-FU grouping, amortizing
	// dispatch energy.
	OpsPerCompound int
	// DispatchEvent/OpEvent/StorageEvent configure energy accounting.
	DispatchEvent energy.Event
	OpEvent       energy.Event
	StorageEvent  energy.Event
	MemEvent      energy.Event // charged per memory op (SB or LSQ analog)
}

// Dataflow models dataflow execution of dynamic instructions on an
// offload accelerator sharing the cache hierarchy. It tracks register and
// memory dependences locally and exposes entry/exit state for region
// handoff.
type Dataflow struct {
	Cfg    DataflowConfig
	G      *dg.Graph
	Counts *energy.Counts

	regNode  [isa.NumRegs]dg.NodeID
	ctrlNode dg.NodeID
	stores   dfStoreTab

	issueRT *dg.ResourceTable
	busRT   *dg.ResourceTable
	memRT   *dg.ResourceTable

	lastNode dg.NodeID
	lastExec dg.NodeID
	ops      int64
	values   int64
	// written flags registers written during execution; a fixed array
	// instead of a map keeps the per-op write branchless, and iteration
	// (WrittenRegs, ExitNode) deterministic in ascending register order —
	// map iteration could pick either predecessor on exit-edge time ties.
	written [isa.NumRegs]bool
	wrList  [isa.NumRegs]isa.Reg // WrittenRegs scratch
}

// dfPool recycles Dataflow executors (and their store table) across
// regions; every offload model creates one per region occurrence.
var dfPool = sync.Pool{New: func() any {
	return &Dataflow{}
}}

// dfStoreTab is an open-addressed address → completion-node table for
// store-to-load forwarding, replacing a Go map on the per-op hot path.
// Keys are word-aligned addresses tagged with bit 0 (addresses have the
// low three bits clear) so the zero key can mean "empty slot". slots
// lists the occupied slot indices, so clear, forEach and grow cost
// O(live entries) however large one earlier region grew the arrays.
type dfStoreTab struct {
	keys  []uint64
	nodes []dg.NodeID
	slots []int32
}

const dfStoreTabInitSize = 1024

func (t *dfStoreTab) clear() {
	if t.keys == nil {
		t.keys = make([]uint64, dfStoreTabInitSize)
		t.nodes = make([]dg.NodeID, dfStoreTabInitSize)
	}
	for _, i := range t.slots {
		t.keys[i] = 0
	}
	t.slots = t.slots[:0]
}

func (t *dfStoreTab) get(addr uint64) (dg.NodeID, bool) {
	k := addr | 1
	mask := uint64(len(t.keys) - 1)
	for i := (k * 0x9E3779B97F4A7C15) >> 17 & mask; ; i = (i + 1) & mask {
		switch t.keys[i] {
		case k:
			return t.nodes[i], true
		case 0:
			return dg.None, false
		}
	}
}

func (t *dfStoreTab) set(addr uint64, n dg.NodeID) {
	if 2*(len(t.slots)+1) > len(t.keys) {
		t.grow()
	}
	k := addr | 1
	mask := uint64(len(t.keys) - 1)
	for i := (k * 0x9E3779B97F4A7C15) >> 17 & mask; ; i = (i + 1) & mask {
		switch t.keys[i] {
		case k:
			t.nodes[i] = n
			return
		case 0:
			t.keys[i], t.nodes[i] = k, n
			t.slots = append(t.slots, int32(i))
			return
		}
	}
}

func (t *dfStoreTab) grow() {
	oldKeys, oldNodes, oldSlots := t.keys, t.nodes, t.slots
	t.keys = make([]uint64, 2*len(oldKeys))
	t.nodes = make([]dg.NodeID, 2*len(oldNodes))
	t.slots = make([]int32, 0, 2*cap(oldSlots))
	for _, i := range oldSlots {
		t.set(oldKeys[i]&^1, oldNodes[i])
	}
}

// forEach visits every entry, in insertion order.
func (t *dfStoreTab) forEach(f func(addr uint64, n dg.NodeID)) {
	for _, i := range t.slots {
		f(t.keys[i]&^1, t.nodes[i])
	}
}

// len reports the number of entries.
func (t *dfStoreTab) len() int { return len(t.slots) }

// NewDataflow returns an executor whose inputs become available at the
// entry node (live-in transfer complete). The executor is pooled: pair
// with Release.
func NewDataflow(cfg DataflowConfig, g *dg.Graph, counts *energy.Counts, entry dg.NodeID) *Dataflow {
	d := dfPool.Get().(*Dataflow)
	d.Cfg, d.G, d.Counts = cfg, g, counts
	d.stores.clear()
	clear(d.written[:])
	d.issueRT = g.BorrowRT(cfg.IssueBandwidth)
	d.busRT = g.BorrowRT(cfg.BusBandwidth)
	d.memRT = g.BorrowRT(cfg.MemPorts)
	for i := range d.regNode {
		d.regNode[i] = entry
	}
	d.ctrlNode = entry
	d.lastNode = entry
	d.lastExec = dg.None
	d.ops, d.values = 0, 0
	return d
}

// Release recycles the dataflow's resource tables into the graph's pool
// and the executor itself into the package pool. Call (usually defer)
// once the Dataflow is no longer used; it must not be touched afterwards.
func (d *Dataflow) Release() {
	d.G.ReturnRT(d.issueRT, d.busRT, d.memRT)
	d.issueRT, d.busRT, d.memRT = nil, nil, nil
	d.G, d.Counts = nil, nil
	dfPool.Put(d)
}

// Exec models one dynamic instruction on the accelerator and returns its
// completion node.
func (d *Dataflow) Exec(in *isa.Inst, dyn *trace.DynInst, dynIdx int32) dg.NodeID {
	g := d.G
	e := g.NewNode(dg.KindAccel, dynIdx)

	if g.Lean() {
		// Lean fast path: accumulate the dependence join in a register
		// and store it once — identical times, no per-edge relax calls
		// (a None source contributes nothing, mirroring AddEdge).
		var te int64
		if in.Src1.Valid() && in.Src1 != isa.RZ {
			if n := d.regNode[in.Src1]; n != dg.None {
				if t := g.Time(n); t > te {
					te = t
				}
			}
		}
		if in.Src2.Valid() && in.Src2 != isa.RZ {
			if n := d.regNode[in.Src2]; n != dg.None {
				if t := g.Time(n); t > te {
					te = t
				}
			}
		}
		if in.Op == isa.FMA && in.Dst.Valid() {
			if n := d.regNode[in.Dst]; n != dg.None {
				if t := g.Time(n); t > te {
					te = t
				}
			}
		}
		if d.Cfg.SerializeControl && d.ctrlNode != dg.None {
			if t := g.Time(d.ctrlNode) + 1; t > te {
				te = t
			}
		}
		if d.Cfg.ChainOps && d.lastExec != dg.None {
			if t := g.Time(d.lastExec); t > te {
				te = t
			}
		}
		if in.Op.IsLoad() {
			if dep, ok := d.stores.get(dyn.Addr &^ 7); ok {
				if t := g.Time(dep) + 1; t > te {
					te = t
				}
			}
		}
		g.SetTime(e, te)
	} else {
		// Data dependences.
		if in.Src1.Valid() && in.Src1 != isa.RZ {
			g.AddEdge(d.regNode[in.Src1], e, 0, dg.EdgeData)
		}
		if in.Src2.Valid() && in.Src2 != isa.RZ {
			g.AddEdge(d.regNode[in.Src2], e, 0, dg.EdgeData)
		}
		if in.Op == isa.FMA && in.Dst.Valid() {
			g.AddEdge(d.regNode[in.Dst], e, 0, dg.EdgeData)
		}
		// Non-speculative control: wait for the branch that admitted
		// this op.
		if d.Cfg.SerializeControl {
			g.AddEdge(d.ctrlNode, e, 1, dg.EdgeAccelCompute)
		}
		// Serialized compound execution: in-order issue.
		if d.Cfg.ChainOps && d.lastExec != dg.None {
			g.AddEdge(d.lastExec, e, 0, dg.EdgeInOrder)
		}
		// Memory dependence through the (store buffer / cache) interface.
		if in.Op.IsLoad() {
			if dep, ok := d.stores.get(dyn.Addr &^ 7); ok {
				g.AddEdge(dep, e, 1, dg.EdgeMemDep)
			}
		}
	}

	// Resources.
	g.PushTime(e, d.issueRT.Book(g.Time(e)), dg.EdgeFU)
	if in.Op.IsMem() {
		g.PushTime(e, d.memRT.Book(g.Time(e)), dg.EdgeCachePort)
	}

	// Completion.
	p := g.NewNode(dg.KindAccel, dynIdx)
	lat := int64(in.Op.Latency())
	if in.Op.IsMem() {
		lat = int64(dyn.MemLat)
		if in.Op.IsStore() {
			lat = 1
		}
	}
	if lat < 1 {
		lat = 1
	}
	if g.Lean() {
		g.SetTime(p, g.Time(e)+lat) // e's only outgoing edge; times ≥ 0
	} else {
		g.AddEdge(e, p, lat, dg.EdgeExec)
	}
	if in.HasDst() {
		d.values++
		// Cross-CFU results traverse the writeback bus (a fixed fraction
		// of values stay local to their compound unit).
		if d.Cfg.BusEvery <= 1 || d.values%int64(d.Cfg.BusEvery) == 0 {
			g.PushTime(p, d.busRT.Book(g.Time(p)), dg.EdgeFU)
			d.Counts.Add(energy.EvDFBus, 1)
		}
		d.regNode[in.Dst] = p
		d.written[in.Dst] = true
		d.Counts.Add(d.Cfg.StorageEvent, 1)
	}
	if in.Op.IsStore() {
		d.stores.set(dyn.Addr&^7, p)
		if d.stores.len() > 8192 {
			d.stores.clear()
			d.stores.set(dyn.Addr&^7, p)
		}
	}
	if in.Op.IsCtrl() {
		d.ctrlNode = p
	}

	// Energy: compound-amortized dispatch + per-op firing + memory.
	d.ops++
	if d.Cfg.OpsPerCompound > 0 && d.ops%int64(d.Cfg.OpsPerCompound) == 0 {
		d.Counts.Add(d.Cfg.DispatchEvent, 1)
	}
	d.Counts.Add(d.Cfg.OpEvent, 1)
	if in.Op.IsMem() {
		d.Counts.Add(d.Cfg.MemEvent, 1)
		d.Counts.Add(energy.EvL1Access, 1)
		switch dyn.Level {
		case trace.LevelL2:
			d.Counts.Add(energy.EvL2Access, 1)
		case trace.LevelMem:
			d.Counts.Add(energy.EvL2Access, 1)
			d.Counts.Add(energy.EvMemAccess, 1)
		}
	}

	d.lastNode = p
	d.lastExec = e
	return p
}

// RegNode returns the node currently producing register r.
func (d *Dataflow) RegNode(r isa.Reg) dg.NodeID { return d.regNode[r] }

// CtrlNode returns the last resolved-control node.
func (d *Dataflow) CtrlNode() dg.NodeID { return d.ctrlNode }

// LastNode returns the most recent completion node.
func (d *Dataflow) LastNode() dg.NodeID { return d.lastNode }

// Ops returns the number of executed operations.
func (d *Dataflow) Ops() int64 { return d.ops }

// WrittenRegs returns the registers written during execution, in
// ascending order. The slice is scratch owned by the executor — iterate
// it immediately, don't retain it across Exec or Release.
func (d *Dataflow) WrittenRegs() []isa.Reg {
	out := d.wrList[:0]
	for r := 0; r < isa.NumRegs; r++ {
		if d.written[r] {
			out = append(out, isa.Reg(r))
		}
	}
	return out
}

// ForEachStore visits every (address, completion node) pair of performed
// stores, for forwarding into the core's dependence state at region exit.
// Addresses are unique, so visit order does not matter to consumers.
func (d *Dataflow) ForEachStore(f func(addr uint64, node dg.NodeID)) {
	d.stores.forEach(f)
}

// StoreNode returns the completion node of the last store to addr's word,
// if any.
func (d *Dataflow) StoreNode(addr uint64) (dg.NodeID, bool) {
	return d.stores.get(addr &^ 7)
}

// ResetControl re-anchors the control chain (lane-local control: each
// loop iteration resolves its own branches independently, as in
// XLOOPS-style lane execution).
func (d *Dataflow) ResetControl(node dg.NodeID) { d.ctrlNode = node }

// RegSource lets Resume read the core's architectural dependence state
// without importing the cores package.
type RegSource interface {
	RegDef(r isa.Reg) dg.NodeID
}

// Resume re-synchronizes the executor after a misspeculation replay on
// the host core: every register's producer becomes the core's current
// producer (at earliest the resume node), and control restarts at resume.
func (d *Dataflow) Resume(resume dg.NodeID, regs RegSource) {
	rt := d.G.Time(resume)
	for r := range d.regNode {
		n := regs.RegDef(isa.Reg(r))
		// Take whichever producer is later: the replay's register writer
		// or the resume handshake itself.
		if n == dg.None || d.G.Time(n) < rt {
			n = resume
		}
		d.regNode[r] = n
	}
	d.ctrlNode = resume
	d.lastNode = resume
	d.lastExec = resume
}

// ExitNode builds a join node at which all written registers and the last
// control decision are available (region completion).
func (d *Dataflow) ExitNode(extraLat int64) dg.NodeID {
	g := d.G
	exit := g.NewNode(dg.KindAccel, -1)
	g.AddEdge(d.ctrlNode, exit, extraLat, dg.EdgeAccelComm)
	g.AddEdge(d.lastNode, exit, extraLat, dg.EdgeAccelComm)
	for r := 0; r < isa.NumRegs; r++ {
		if d.written[r] {
			g.AddEdge(d.regNode[r], exit, extraLat, dg.EdgeAccelComm)
		}
	}
	return exit
}

// TransferLatency models live-value transfer time between core and
// accelerator: a fixed handshake plus bus-width-limited register moves.
func TransferLatency(nregs int) int64 {
	lat := int64(2 + (nregs+1)/2)
	return lat
}

// ConfigCache is a small LRU of accelerator configurations keyed by loop
// ID; a miss costs a configuration load (paper §3.2, DP-CGRA keeps "a
// small configuration cache"; NS-DF and Trace-P behave likewise).
type ConfigCache struct {
	cap   int
	order []int
}

// NewConfigCache returns an LRU config cache with the given capacity.
func NewConfigCache(capacity int) *ConfigCache {
	return &ConfigCache{cap: capacity}
}

// Lookup touches loopID, returning true on hit; on miss the entry is
// installed (evicting LRU).
func (c *ConfigCache) Lookup(loopID int) bool {
	for i, id := range c.order {
		if id == loopID {
			// Move to MRU position in place.
			copy(c.order[i:], c.order[i+1:])
			c.order[len(c.order)-1] = loopID
			return true
		}
	}
	if len(c.order) < c.cap {
		c.order = append(c.order, loopID)
	} else {
		copy(c.order, c.order[1:])
		c.order[len(c.order)-1] = loopID
	}
	return false
}
