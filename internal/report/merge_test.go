package report

import (
	"bytes"
	"strings"
	"testing"

	"exocore/internal/runner"
)

func render(t *testing.T, d *Document) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := d.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestMergeEqualsSingleDocument(t *testing.T) {
	whole := New("dse")
	whole.Add(
		Result{Design: "IO2", RelPerf: 1, RelEnergyEff: 1, RelArea: 1},
		Result{Design: "IO2", Bench: "mm", Cycles: 100, EnergyNJ: 1.5},
		Result{Design: "IO2", Bench: "gzip", Cycles: 200, EnergyNJ: 2.5},
		Result{Design: "OOO2-S", RelPerf: 2.2, RelEnergyEff: 1.1, RelArea: 3},
		Result{Design: "OOO2-S", Bench: "mm", Cycles: 50, EnergyNJ: 1.25},
		Result{Design: "OOO2-S", Bench: "gzip", Cycles: 90, EnergyNJ: 2.25,
			Params: map[string]string{"sched": "oracle"}},
	)
	want := render(t, whole)

	// Shard the same rows three ways (aggregates, mm, gzip) in shuffled
	// order; the merge must reproduce the single document exactly.
	agg := New("dse")
	agg.Add(whole.Results[3], whole.Results[0])
	mm := New("dse")
	mm.Add(whole.Results[4], whole.Results[1])
	gz := New("dse")
	gz.Add(whole.Results[5], whole.Results[2])

	got, err := Merge(render(t, gz), render(t, agg), render(t, mm))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("merge diverges from the single document\nwant:\n%s\ngot:\n%s", want, got)
	}

	// A single part round-trips.
	got, err = Merge(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("single-part merge is not the identity")
	}
}

func TestMergeRejections(t *testing.T) {
	good := New("dse")
	good.Add(Result{Design: "IO2", Bench: "mm", Cycles: 1})
	goodB := render(t, good)

	check := func(name, wantSub string, parts ...[]byte) {
		t.Helper()
		if _, err := Merge(parts...); err == nil {
			t.Errorf("%s: merge accepted", name)
		} else if !strings.Contains(err.Error(), wantSub) {
			t.Errorf("%s: error %q does not mention %q", name, err, wantSub)
		}
	}

	check("zero parts", "zero parts")
	check("garbage", "decode", goodB, []byte("{"))

	bad := New("dse")
	bad.Schema = "exocore-result/v999"
	bad.Add(Result{Design: "IO2", Bench: "gzip"})
	check("schema mismatch", "schema", goodB, render(t, bad))

	other := New("accelsweep")
	other.Add(Result{Design: "IO2", Bench: "gzip"})
	check("tool mismatch", "tool", goodB, render(t, other))

	dup := New("dse")
	dup.Add(Result{Design: "IO2", Bench: "mm", Cycles: 2})
	check("overlapping rows", "overlaps", goodB, render(t, dup))

	// Same (design, bench) under different params is NOT an overlap.
	variant := New("dse")
	variant.Add(Result{Design: "IO2", Bench: "mm", Cycles: 2,
		Params: map[string]string{"sched": "amdahl"}})
	if _, err := Merge(goodB, render(t, variant)); err != nil {
		t.Errorf("distinct params rejected: %v", err)
	}

	withMetrics := New("dse")
	withMetrics.Add(Result{Design: "OOO2", Bench: "mm"})
	withMetrics.Metrics = &runner.Metrics{}
	check("metrics attachment", "metrics", goodB, render(t, withMetrics))
}

// FuzzMerge feeds Merge one arbitrary part. Merge must never panic; when
// it accepts the part, merging its output again must return identical
// bytes (the output is itself a valid, canonically ordered part); and a
// part with rows merged with itself must fail with the overlap error.
// The seed corpus under testdata/fuzz/FuzzMerge holds a real partial
// /v1/sweep shard.
func FuzzMerge(f *testing.F) {
	f.Add([]byte(`{"schema":"exocore-result/v1","tool":"t","results":[]}`))
	f.Fuzz(func(t *testing.T, part []byte) {
		out, err := Merge(part)
		if err != nil {
			return
		}
		again, err := Merge(out)
		if err != nil {
			t.Fatalf("merging the merged output failed: %v\noutput:\n%s", err, out)
		}
		if !bytes.Equal(again, out) {
			t.Fatalf("merge is not idempotent:\nfirst:\n%s\nsecond:\n%s", out, again)
		}
		d, err := Decode(bytes.NewReader(out))
		if err != nil {
			t.Fatal(err)
		}
		if len(d.Results) == 0 {
			return
		}
		if _, err := Merge(part, part); err == nil || !strings.Contains(err.Error(), "overlaps part 0") {
			t.Fatalf("merging a part with rows with itself: err = %v, want the overlap error", err)
		}
	})
}
