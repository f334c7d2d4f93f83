package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// shortConfig runs a workload at test scale.
func shortConfig(t *testing.T, workload string, traced bool) config {
	return config{
		workload: workload, seed: 7, seconds: 300 * time.Millisecond, trace: traced,
		scale: shortScale, workers: 2, dir: t.TempDir(),
	}
}

func TestEveryMetricEmitted(t *testing.T) {
	for _, wl := range workloadNames {
		for _, traced := range []bool{false, true} {
			cfg := shortConfig(t, wl, traced)
			out, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl, traced, err)
			}
			if out.failed != 0 || out.attempted == 0 {
				t.Fatalf("%s trace=%v: %d of %d operations failed: %v", wl, traced, out.failed, out.attempted, out.failures)
			}
			defs := cfg.metricDefs()
			for _, d := range defs {
				v, ok := out.metrics[d.name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", wl, traced, d.name)
				}
				if !traced && v <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl, d.name, v)
				}
			}
			if len(out.metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want exactly %d", wl, traced, len(out.metrics), len(defs))
			}
		}
	}
}

// TestTracedLayersMeasured checks that each workload's traced run
// measures the layers it exists to exercise.
func TestTracedLayersMeasured(t *testing.T) {
	want := map[string][]string{
		wlSweep: {"workloads.trace_ms", "tdg.build_ms", "bsa.analyze_ms", "exocore.baseline_ms",
			"exocore.solo_ms", "exocore.solos", "sched.select_ms", "sched.evaluate_ms",
			"sched.evaluations", "runner.sched_misses", "report.encode_ms", "replay.closure"},
		wlZipf:   {"serve.handler_p50_ms", "serve.handler_p99_ms", "serve.wait_p99_ms", "runner.sched_misses"},
		wlFabric: {"fabric.shards", "fabric.shard_p50_ms", "store.puts", "store.put_ms", "store.gets", "store.hit_ratio", "store.open_ms", "report.merge_ms"},
	}
	for wl, names := range want {
		out, err := run(shortConfig(t, wl, true))
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range names {
			if out.metrics[n] <= 0 {
				t.Errorf("%s: %s = %v, want > 0", wl, n, out.metrics[n])
			}
		}
	}
}

func TestCorruptedOutputFails(t *testing.T) {
	flip := func(b []byte) []byte {
		if i := bytes.LastIndex(b, []byte(`"cycles": `)); i >= 0 {
			b[i+len(`"cycles": `)] ^= 1 // 1 → 0, 2 → 3, ...
		}
		return b
	}
	for _, wl := range workloadNames {
		cfg := shortConfig(t, wl, false)
		cfg.corrupt = flip
		out, err := run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		if out.failed == 0 {
			t.Errorf("%s: corrupted outputs passed the check", wl)
		}
	}
}

func TestClosureFiresWhenLayerLeftOut(t *testing.T) {
	cfg := shortConfig(t, wlSweep, true)
	cfg.dropLayer = laySolo
	out, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fired := false
	for _, f := range out.failures {
		fired = fired || strings.HasPrefix(f, "replay closure")
	}
	if !fired {
		t.Fatalf("closure check did not fire with %s left out; failures: %v", laySolo, out.failures)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric lists in step
// with what the benchmark emits.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var wls []string
	for _, w := range spec.Workloads {
		wls = append(wls, w.Name)
	}
	if strings.Join(wls, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", wls, workloadNames)
	}
	for _, c := range []struct {
		name string
		got  []struct{ Name, Unit string }
		want []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, benchmark emits %d", c.name, len(c.got), len(c.want))
			continue
		}
		for i := range c.want {
			if c.got[i].Name != c.want[i].name || c.got[i].Unit != c.want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, benchmark %s/%s", c.name, i,
					c.got[i].Name, c.got[i].Unit, c.want[i].name, c.want[i].unit)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	fp := machineFingerprint()
	recs := func(vals ...float64) []record {
		var rs []record
		for i, v := range vals {
			rs = append(rs, record{Fingerprint: fp, Workload: wlSweep, Seed: int64(i), Correct: true,
				Metrics: map[string]float64{"cold_ms": v}})
		}
		return rs
	}
	spec := &benchSpec{}
	spec.EndToEnd = append(spec.EndToEnd, struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}{"cold_ms", "lower", 0.1})
	base := recs(100, 101, 99, 100, 102, 98, 100, 101, 99, 100)
	for _, c := range []struct {
		b    []record
		want string
	}{
		{recs(80, 81, 79, 80, 82, 78, 80, 81, 79, 80), "improved"},
		{recs(101, 100, 100, 99, 102, 99, 101, 100, 100, 101), "no worse"},
		{recs(130, 131, 129, 130, 132, 128, 130, 131, 129, 130), "worse"},
		{recs(60, 140, 70, 150, 100, 65, 145, 100, 90, 120), "unresolved"},
	} {
		if got := judge(spec, base, c.b)[0].verdict; got != c.want {
			t.Errorf("verdict %q, want %q", got, c.want)
		}
	}
	other := recs(100)
	other[0].Fingerprint.NProc++
	if len(machineDiff(base, other)) == 0 {
		t.Error("a record from another machine was not flagged")
	}
}
