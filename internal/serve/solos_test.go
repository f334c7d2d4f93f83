package serve

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"testing"

	"exocore/internal/cores"
	"exocore/internal/runner"
	"exocore/internal/workloads"
)

// solosMeasured returns the number of candidate solos eng has run for
// bench on OOO2, from the solos stage's instruction count (every solo
// runs the whole trace).
func solosMeasured(t *testing.T, eng *runner.Engine, bench string) int64 {
	t.Helper()
	w, err := workloads.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	td, err := eng.TDG(w)
	if err != nil {
		t.Fatal(err)
	}
	return eng.Metrics().Stage(runner.StageSolos).Insts / int64(td.Trace.Len())
}

// plannedSolos is the number of candidate solos the named BSAs plan for
// bench on OOO2.
func plannedSolos(t *testing.T, eng *runner.Engine, bench string, names ...string) int64 {
	t.Helper()
	w, err := workloads.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := eng.Context(w, cores.OOO2)
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, name := range names {
		n += int64(len(sc.Plans[name].Regions))
	}
	return n
}

func postOK(t *testing.T, url, body string) {
	t.Helper()
	resp, b := post(t, url, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d, body %s", body, resp.StatusCode, b)
	}
}

// TestAmdahlEvaluateMeasuresNoSolos: the Amdahl tree works from the
// analyzers' estimates, so a cold amdahl request measures no solo.
func TestAmdahlEvaluateMeasuresNoSolos(t *testing.T) {
	eng := runner.New(runner.Options{MaxDyn: testMaxDyn})
	_, hs := newTestServer(t, Config{Engine: eng})
	postOK(t, hs.URL+"/v1/evaluate", `{"bench":"cjpeg","bsas":"all","sched":"amdahl"}`)
	if s := eng.Metrics().Stage(runner.StageSolos); s.Calls != 0 || s.Insts != 0 {
		t.Errorf("amdahl request: solos stage %+v, want no lookups", s)
	}
}

// TestOracleEvaluateMeasuresRequestedSolos: a cold oracle request
// measures exactly the requested BSAs' solos; a later request pays only
// for the BSAs not measured yet.
func TestOracleEvaluateMeasuresRequestedSolos(t *testing.T) {
	eng := runner.New(runner.Options{MaxDyn: testMaxDyn})
	_, hs := newTestServer(t, Config{Engine: eng})
	postOK(t, hs.URL+"/v1/evaluate", `{"bench":"cjpeg","bsas":"SIMD,NS-DF"}`)
	want := plannedSolos(t, eng, "cjpeg", "SIMD", "NS-DF")
	if got := solosMeasured(t, eng, "cjpeg"); got != want || want == 0 {
		t.Errorf("SIMD,NS-DF request measured %d solos, want %d", got, want)
	}
	postOK(t, hs.URL+"/v1/evaluate", `{"bench":"cjpeg","bsas":"SIMD,DP-CGRA"}`)
	want += plannedSolos(t, eng, "cjpeg", "DP-CGRA")
	if got := solosMeasured(t, eng, "cjpeg"); got != want {
		t.Errorf("after SIMD,DP-CGRA: %d solos measured, want %d", got, want)
	}
}

// TestConcurrentOverlappingRequestsMeasureOnce: two concurrent requests
// with overlapping BSA subsets (different coalescing keys) measure each
// BSA once between them.
func TestConcurrentOverlappingRequestsMeasureOnce(t *testing.T) {
	eng := runner.New(runner.Options{MaxDyn: testMaxDyn, Workers: 2})
	_, hs := newTestServer(t, Config{Engine: eng})
	var wg sync.WaitGroup
	for _, bsas := range []string{"SIMD,DP-CGRA,NS-DF", "DP-CGRA,NS-DF,Trace-P"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, b := post(t, hs.URL+"/v1/evaluate", `{"bench":"cjpeg","bsas":"`+bsas+`"}`)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("%s: status %d, body %s", bsas, resp.StatusCode, b)
			}
		}()
	}
	wg.Wait()
	want := plannedSolos(t, eng, "cjpeg", "SIMD", "DP-CGRA", "NS-DF", "Trace-P")
	if got := solosMeasured(t, eng, "cjpeg"); got != want {
		t.Errorf("overlapping requests measured %d solos, want %d", got, want)
	}
}

// TestCanceledMeasurementRerunByNextRequest: a measurement canceled
// with its caller keeps nothing; the next request measures in full.
func TestCanceledMeasurementRerunByNextRequest(t *testing.T) {
	eng := runner.New(runner.Options{MaxDyn: testMaxDyn})
	_, hs := newTestServer(t, Config{Engine: eng})
	w, err := workloads.ByName("cjpeg")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := eng.Context(w, cores.OOO2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sc.Measure(ctx, []string{"SIMD"}, nil, ""); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Measure = %v, want context.Canceled", err)
	}
	postOK(t, hs.URL+"/v1/evaluate", `{"bench":"cjpeg","bsas":"SIMD"}`)
	if got, want := solosMeasured(t, eng, "cjpeg"), plannedSolos(t, eng, "cjpeg", "SIMD"); got != want {
		t.Errorf("request after a canceled measurement measured %d solos, want %d", got, want)
	}
}
