package cli

import (
	"strconv"
	"strings"
	"testing"

	"exocore/internal/bsa"
	"exocore/internal/runner"
	"exocore/internal/trace"
	"exocore/internal/workloads"
)

func TestParseDefaults(t *testing.T) {
	a := New("tool", "all")
	if err := a.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if a.CoreConfig().Name != "OOO2" {
		t.Errorf("default core = %s", a.CoreConfig().Name)
	}
	if got, want := len(a.Workloads()), len(workloads.All()); got != want {
		t.Errorf("default workloads = %d, want %d", got, want)
	}
	if got := a.BSANames(); len(got) != bsa.Default().Len() || got[0] != "SIMD" {
		t.Errorf("default BSAs = %v", got)
	}
	if a.UseAmdahl() {
		t.Error("default scheduler should be oracle")
	}
	if a.MaxDyn != runner.DefaultMaxDyn {
		t.Errorf("default maxdyn = %d", a.MaxDyn)
	}
}

func TestParseUnifiedFlags(t *testing.T) {
	a := New("tool", "all")
	err := a.Parse([]string{
		"-bench", "mm,cjpeg", "-core", "IO2", "-bsas", "SIMD,NS-DF",
		"-sched", "amdahl", "-json", "-v", "-maxdyn", "5000", "-workers", "3",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Workloads()) != 2 || a.Workloads()[0].Name != "mm" {
		t.Errorf("workloads = %v", a.Workloads())
	}
	if a.CoreConfig().Name != "IO2" {
		t.Errorf("core = %s", a.CoreConfig().Name)
	}
	if got := a.BSANames(); len(got) != 2 || got[0] != "SIMD" || got[1] != "NS-DF" {
		t.Errorf("bsas = %v", got)
	}
	if !a.UseAmdahl() || !a.JSON || !a.Verbose {
		t.Error("amdahl/json/v flags not picked up")
	}
	if a.Engine().MaxDyn() != 5000 || a.Engine().Workers() != 3 {
		t.Errorf("engine budget/workers = %d/%d", a.Engine().MaxDyn(), a.Engine().Workers())
	}
}

func TestParseQuickSet(t *testing.T) {
	a := New("tool", "all")
	if err := a.Parse([]string{"-bench", "quick"}); err != nil {
		t.Fatal(err)
	}
	if got, want := len(a.Workloads()), len(QuickSet); got != want {
		t.Errorf("quick set = %d workloads, want %d", got, want)
	}
}

func TestParseRejectsInvalid(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-core", "Pentium"}, "unknown core"},
		{[]string{"-bench", "nosuchbench"}, "unknown workload"},
		{[]string{"-bsas", "GPU"}, "unknown BSA"},
		{[]string{"-sched", "magic"}, "unknown scheduler"},
		{[]string{"-chunk-insts", "-5"}, "below the minimum 4096; did you mean 4096?"},
		{[]string{"-chunk-insts", "0"}, "below the minimum 4096; did you mean 4096?"},
		{[]string{"-chunk-insts", "100"}, "below the minimum 4096"},
		{[]string{"-chunk-insts", "536870913"}, "exceeds the maximum"},
	}
	for _, c := range cases {
		a := New("tool", "all")
		err := a.Parse(c.args)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%v) err = %v, want %q", c.args, err, c.want)
		}
	}
}

func TestResolveBSASpecNone(t *testing.T) {
	for _, spec := range []string{"", "none"} {
		got, err := ResolveBSASpec(spec)
		if err != nil || got != nil {
			t.Errorf("ResolveBSASpec(%q) = %v, %v", spec, got, err)
		}
	}
}

func TestSetMaxDynDefault(t *testing.T) {
	a := New("tool", "all")
	a.SetMaxDynDefault(40000)
	if err := a.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if a.MaxDyn != 40000 {
		t.Errorf("maxdyn = %d, want overridden default 40000", a.MaxDyn)
	}
	b := New("tool", "all")
	b.SetMaxDynDefault(40000)
	if err := b.Parse([]string{"-maxdyn", "123"}); err != nil {
		t.Fatal(err)
	}
	if b.MaxDyn != 123 {
		t.Errorf("maxdyn = %d, explicit flag must win", b.MaxDyn)
	}
}

func TestChunkInstsFlag(t *testing.T) {
	// Default: chunked streaming at trace.DefaultChunkInsts.
	a := New("tool", "all")
	if err := a.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if a.ChunkInsts != trace.DefaultChunkInsts {
		t.Errorf("default chunk-insts = %d, want %d", a.ChunkInsts, trace.DefaultChunkInsts)
	}

	// Explicit in-range values, the minimum included, are accepted.
	for _, n := range []string{"4096", "8192"} {
		c := New("tool", "all")
		if err := c.Parse([]string{"-chunk-insts", n}); err != nil {
			t.Fatalf("-chunk-insts %s: %v", n, err)
		}
		if got := strconv.Itoa(c.ChunkInsts); got != n {
			t.Errorf("chunk-insts = %s, want %s", got, n)
		}
	}
}

func TestEngineIsShared(t *testing.T) {
	a := New("tool", "all")
	if err := a.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if a.Engine() != a.Engine() {
		t.Error("Engine() must return the same instance")
	}
}
