package bsautil

import (
	"testing"

	"exocore/internal/bpred"
	"exocore/internal/cache"
	"exocore/internal/dg"
	"exocore/internal/energy"
	"exocore/internal/isa"
	"exocore/internal/prog"
	"exocore/internal/sim"
	"exocore/internal/tdg"
	"exocore/internal/trace"
)

func buildTDG(t *testing.T, p *prog.Program, prep func(*sim.State)) *tdg.TDG {
	t.Helper()
	st := sim.NewState()
	if prep != nil {
		prep(st)
	}
	tr, err := sim.Run(p, st, sim.Config{MaxDyn: 20000})
	if err != nil {
		t.Fatal(err)
	}
	cache.DefaultHierarchy().Annotate(tr)
	bpred.New(bpred.DefaultConfig()).Annotate(tr)
	td, err := tdg.Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	return td
}

func countLoop(n int64) *prog.Program {
	b := prog.NewBuilder("count")
	b.MovI(isa.R(1), n)
	b.Label("loop")
	b.AddI(isa.R(2), isa.R(2), 1)
	b.SubI(isa.R(1), isa.R(1), 1)
	b.Bne(isa.R(1), isa.RZ, "loop")
	return b.MustBuild()
}

func TestSplitIterations(t *testing.T) {
	td := buildTDG(t, countLoop(10), nil)
	// Trace: movi + 10*(addi,subi,bne). The loop occupies [1, 31).
	iters := SplitIterations(td, 0, 1, 31)
	if len(iters) != 10 {
		t.Fatalf("iterations = %d, want 10", len(iters))
	}
	for i, it := range iters {
		if it.End-it.Start != 3 {
			t.Errorf("iteration %d has %d insts, want 3", i, it.End-it.Start)
		}
	}
	if iters[0].Start != 1 || iters[9].End != 31 {
		t.Errorf("coverage wrong: %+v", iters)
	}
}

func TestSplitIterationsWithPrefix(t *testing.T) {
	td := buildTDG(t, countLoop(5), nil)
	// Include the prologue movi in the range: folds into iteration 1.
	iters := SplitIterations(td, 0, 0, 16)
	total := 0
	for _, it := range iters {
		total += it.End - it.Start
	}
	if total != 16 {
		t.Errorf("iterations cover %d insts, want 16", total)
	}
}

func TestBlocksOf(t *testing.T) {
	td := buildTDG(t, countLoop(3), nil)
	blocks := BlocksOf(td, 1, 4) // one iteration: single block
	if len(blocks) != 1 {
		t.Errorf("blocks = %v, want single block", blocks)
	}
	// Two iterations of the same single-block loop: re-entry counts.
	blocks = BlocksOf(td, 1, 7)
	if len(blocks) != 2 {
		t.Errorf("blocks over 2 iterations = %v, want re-entry", blocks)
	}
}

func TestConfigCacheLRU(t *testing.T) {
	c := NewConfigCache(2)
	if c.Lookup(1) {
		t.Error("cold lookup hit")
	}
	if !c.Lookup(1) {
		t.Error("warm lookup missed")
	}
	c.Lookup(2)
	c.Lookup(3) // evicts 1
	if c.Lookup(1) {
		t.Error("evicted entry hit")
	}
	if !c.Lookup(3) {
		t.Error("MRU entry missed")
	}
}

func TestTransferLatency(t *testing.T) {
	if TransferLatency(0) != 2 || TransferLatency(4) != 4 {
		t.Errorf("TransferLatency: %d %d", TransferLatency(0), TransferLatency(4))
	}
	if TransferLatency(5) <= TransferLatency(1) {
		t.Error("latency must grow with register count")
	}
}

var testCfg = DataflowConfig{
	IssueBandwidth: 4, BusBandwidth: 2, MemPorts: 1,
	SerializeControl: true, OpsPerCompound: 2,
	DispatchEvent: energy.EvDFDispatch, OpEvent: energy.EvCFUOp,
	StorageEvent: energy.EvDFOpStorage, MemEvent: energy.EvLSQ,
}

func TestDataflowDataDependence(t *testing.T) {
	g := dg.NewGraph()
	var counts energy.Counts
	entry := g.NewNode(dg.KindAccel, -1)
	df := NewDataflow(testCfg, g, &counts, entry)

	add := isa.Inst{Op: isa.Add, Dst: isa.R(1), Src1: isa.R(2), Src2: isa.R(3)}
	mul := isa.Inst{Op: isa.Mul, Dst: isa.R(4), Src1: isa.R(1), Src2: isa.R(1)}
	d := trace.DynInst{}
	p1 := df.Exec(&add, &d, 0)
	p2 := df.Exec(&mul, &d, 1)
	if g.Time(p2) < g.Time(p1)+int64(isa.Mul.Latency()) {
		t.Errorf("dependent mul at %d, producer at %d", g.Time(p2), g.Time(p1))
	}
	if df.Ops() != 2 {
		t.Errorf("ops = %d", df.Ops())
	}
	if got := df.WrittenRegs(); len(got) != 2 || got[0] != isa.R(1) || got[1] != isa.R(4) {
		t.Errorf("WrittenRegs = %v, want [R1 R4] in ascending order", got)
	}
}

func TestDataflowControlSerialization(t *testing.T) {
	runWith := func(serialize bool) int64 {
		g := dg.NewGraph()
		var counts energy.Counts
		cfg := testCfg
		cfg.SerializeControl = serialize
		df := NewDataflow(cfg, g, &counts, g.Origin())
		br := isa.Inst{Op: isa.Bne, Src1: isa.R(1), Src2: isa.RZ, Dst: isa.NoReg}
		op := isa.Inst{Op: isa.Add, Dst: isa.R(2), Src1: isa.R(3), Src2: isa.R(3)}
		d := trace.DynInst{}
		var last dg.NodeID
		for i := 0; i < 20; i++ {
			df.Exec(&br, &d, int32(2*i))
			last = df.Exec(&op, &d, int32(2*i+1))
		}
		return g.Time(last)
	}
	serial, spec := runWith(true), runWith(false)
	if serial <= spec {
		t.Errorf("control serialization should cost cycles: %d vs %d", serial, spec)
	}
}

func TestDataflowChainOps(t *testing.T) {
	runWith := func(chain bool) int64 {
		g := dg.NewGraph()
		var counts energy.Counts
		cfg := testCfg
		cfg.SerializeControl = false
		cfg.ChainOps = chain
		df := NewDataflow(cfg, g, &counts, g.Origin())
		d := trace.DynInst{}
		var last dg.NodeID
		for i := 0; i < 32; i++ {
			// Independent ops: only chaining can serialize them.
			in := isa.Inst{Op: isa.Add, Dst: isa.R(1 + i%8), Src1: isa.RZ, Src2: isa.RZ}
			last = df.Exec(&in, &d, int32(i))
		}
		return g.Time(last)
	}
	chained, free := runWith(true), runWith(false)
	if chained < free {
		t.Errorf("chained execution faster than dataflow: %d vs %d", chained, free)
	}
}

func TestDataflowMemoryDependence(t *testing.T) {
	g := dg.NewGraph()
	var counts energy.Counts
	df := NewDataflow(testCfg, g, &counts, g.Origin())
	st := isa.Inst{Op: isa.St, Src1: isa.R(1), Src2: isa.R(2), Dst: isa.NoReg}
	ld := isa.Inst{Op: isa.Ld, Dst: isa.R(3), Src1: isa.R(1), Src2: isa.NoReg}
	ds := trace.DynInst{Addr: 0x1000, MemLat: 4}
	pSt := df.Exec(&st, &ds, 0)
	pLd := df.Exec(&ld, &ds, 1)
	if g.Time(pLd) <= g.Time(pSt) {
		t.Error("load did not wait for the store to the same address")
	}
	if n, ok := df.StoreNode(0x1000); !ok || n != pSt {
		t.Error("store table wrong")
	}
}

func TestDataflowExitNode(t *testing.T) {
	g := dg.NewGraph()
	var counts energy.Counts
	df := NewDataflow(testCfg, g, &counts, g.Origin())
	in := isa.Inst{Op: isa.Mul, Dst: isa.R(1), Src1: isa.R(2), Src2: isa.R(2)}
	d := trace.DynInst{}
	p := df.Exec(&in, &d, 0)
	exit := df.ExitNode(3)
	if g.Time(exit) < g.Time(p)+3 {
		t.Errorf("exit at %d, want >= producer+3 (%d)", g.Time(exit), g.Time(p)+3)
	}
}

func TestDataflowResume(t *testing.T) {
	g := dg.NewGraph()
	var counts energy.Counts
	df := NewDataflow(testCfg, g, &counts, g.Origin())
	in := isa.Inst{Op: isa.Add, Dst: isa.R(1), Src1: isa.RZ, Src2: isa.RZ}
	d := trace.DynInst{}
	df.Exec(&in, &d, 0)

	resume := g.NewNode(dg.KindAccel, -1)
	g.AddEdge(g.Origin(), resume, 500, dg.EdgeAccelReplay)
	df.Resume(resume, nilRegs{})
	// Post-resume ops cannot start before the resume point.
	p := df.Exec(&in, &d, 1)
	if g.Time(p) < 500 {
		t.Errorf("post-resume op at %d, want >= 500", g.Time(p))
	}
}

type nilRegs struct{}

func (nilRegs) RegDef(isa.Reg) dg.NodeID { return dg.None }

// TestDataflowLeanTimesIdentical pins the lean fast path in
// Dataflow.Exec to the attribution path: the same op stream through
// both graph modes must yield bit-identical completion times, for both
// the NS-DF (serialized control) and Trace-P (speculative, chained)
// configurations.
func TestDataflowLeanTimesIdentical(t *testing.T) {
	ops := []struct {
		in  isa.Inst
		dyn trace.DynInst
	}{
		{isa.Inst{Op: isa.Add, Dst: isa.R(1), Src1: isa.R(2), Src2: isa.R(3)}, trace.DynInst{}},
		{isa.Inst{Op: isa.Ld, Dst: isa.R(2), Src1: isa.R(1), Src2: isa.NoReg}, trace.DynInst{Addr: 0x1000, MemLat: 12}},
		{isa.Inst{Op: isa.Mul, Dst: isa.R(3), Src1: isa.R(2), Src2: isa.R(2)}, trace.DynInst{}},
		{isa.Inst{Op: isa.St, Src1: isa.R(1), Src2: isa.R(3), Dst: isa.NoReg}, trace.DynInst{Addr: 0x1000, MemLat: 4}},
		{isa.Inst{Op: isa.Ld, Dst: isa.R(4), Src1: isa.R(1), Src2: isa.NoReg}, trace.DynInst{Addr: 0x1000, MemLat: 2}},
		{isa.Inst{Op: isa.Bne, Src1: isa.R(4), Src2: isa.RZ, Dst: isa.NoReg}, trace.DynInst{Flags: trace.FlagTaken}},
		{isa.Inst{Op: isa.FMA, Dst: isa.R(5), Src1: isa.R(3), Src2: isa.R(4)}, trace.DynInst{}},
		{isa.Inst{Op: isa.Div, Dst: isa.R(6), Src1: isa.R(5), Src2: isa.R(3)}, trace.DynInst{}},
	}
	for _, chain := range []bool{false, true} {
		for _, serialize := range []bool{false, true} {
			cfg := testCfg
			cfg.SerializeControl = serialize
			cfg.ChainOps = chain
			cfg.BusEvery = 2
			ga := dg.NewGraph()
			gl := dg.NewGraph()
			gl.ResetMode(true)
			var ca, cl energy.Counts
			da := NewDataflow(cfg, ga, &ca, ga.Origin())
			dl := NewDataflow(cfg, gl, &cl, gl.Origin())
			for i := range ops {
				for rep := 0; rep < 3; rep++ {
					pa := da.Exec(&ops[i].in, &ops[i].dyn, int32(i))
					pl := dl.Exec(&ops[i].in, &ops[i].dyn, int32(i))
					if ga.Time(pa) != gl.Time(pl) {
						t.Fatalf("chain=%v serialize=%v op %d rep %d: attrib %d != lean %d",
							chain, serialize, i, rep, ga.Time(pa), gl.Time(pl))
					}
				}
			}
			ea := da.ExitNode(3)
			el := dl.ExitNode(3)
			if ga.Time(ea) != gl.Time(el) {
				t.Fatalf("chain=%v serialize=%v: exit %d != %d", chain, serialize, ga.Time(ea), gl.Time(el))
			}
			if ca != cl {
				t.Fatalf("chain=%v serialize=%v: energy counts diverge", chain, serialize)
			}
			da.Release()
			dl.Release()
		}
	}
}

// TestDfStoreTabMatchesMap drives the store table through growth and
// clears against a map reference: every lookup agrees, forEach visits
// exactly the live entries once, and clear empties the table however
// large it grew.
func TestDfStoreTabMatchesMap(t *testing.T) {
	var tab dfStoreTab
	tab.clear()
	for round, n := range []int{10, 5000, 3, 20000, 0, 700} {
		ref := map[uint64]dg.NodeID{}
		for i := 0; i < n; i++ {
			addr := uint64(i*7919%(n+1)) * 8 // repeats overwrite
			tab.set(addr, dg.NodeID(i))
			ref[addr] = dg.NodeID(i)
		}
		if tab.len() != len(ref) {
			t.Fatalf("round %d: %d entries, want %d", round, tab.len(), len(ref))
		}
		for addr, want := range ref {
			if got, ok := tab.get(addr); !ok || got != want {
				t.Fatalf("round %d: get(%#x) = %v, %t; want %v", round, addr, got, ok, want)
			}
		}
		if _, ok := tab.get(uint64(n+1) * 8); ok {
			t.Fatalf("round %d: absent address found", round)
		}
		seen := map[uint64]bool{}
		tab.forEach(func(addr uint64, node dg.NodeID) {
			if seen[addr] || ref[addr] != node {
				t.Fatalf("round %d: forEach visited (%#x, %v) wrongly", round, addr, node)
			}
			seen[addr] = true
		})
		if len(seen) != len(ref) {
			t.Fatalf("round %d: forEach visited %d entries, want %d", round, len(seen), len(ref))
		}
		tab.clear()
		for _, k := range tab.keys {
			if k != 0 {
				t.Fatalf("round %d: clear left a key", round)
			}
		}
	}
}
