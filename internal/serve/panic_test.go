package serve

import (
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"exocore/internal/bsa"
	"exocore/internal/bsa/simd"
	"exocore/internal/dg"
	"exocore/internal/runner"
	"exocore/internal/tdg"
	"exocore/internal/workloads"
)

// boomModel is SIMD under another name, except that it panics — in
// Analyze or in TransformRegion — on one program, counting each panic.
type boomModel struct {
	tdg.BSA
	inAnalyze bool
	target    string
	booms     *atomic.Int64
}

func (m *boomModel) Name() string { return "Boom" }

func (m *boomModel) Analyze(t *tdg.TDG) *tdg.Plan {
	if m.inAnalyze && t.Trace.Prog.Name == m.target {
		m.booms.Add(1)
		panic("boom in Analyze")
	}
	return m.BSA.Analyze(t)
}

func (m *boomModel) TransformRegion(ctx *tdg.Ctx, r *tdg.Region, start, end int) dg.NodeID {
	if !m.inAnalyze && ctx.TDG.Trace.Prog.Name == m.target {
		m.booms.Add(1)
		panic("boom in TransformRegion")
	}
	return m.BSA.TransformRegion(ctx, r, start, end)
}

// TestModelPanicFailsRequestNotDaemon: a model that panics fails the
// requests that reach it with 500 — concurrent ones included — without
// wedging the key (the next request runs again instead of hanging until
// its deadline) or taking down the daemon: other keys and /healthz keep
// answering 200, and every panicking flight is counted.
func TestModelPanicFailsRequestNotDaemon(t *testing.T) {
	for _, tc := range []struct {
		name      string
		inAnalyze bool
		workers   int // >1 measures candidate solos on worker goroutines
	}{
		{"TransformRegion", false, 2},
		{"Analyze", true, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wl, err := workloads.ByName("mm")
			if err != nil {
				t.Fatal(err)
			}
			p, _ := wl.Build()
			var booms atomic.Int64
			reg, err := bsa.NewRegistry(
				bsa.Entry{Name: "SIMD", Letter: 'S', New: func() tdg.BSA { return simd.New() }},
				bsa.Entry{Name: "Boom", Letter: 'B', New: func() tdg.BSA {
					return &boomModel{BSA: simd.New(), inAnalyze: tc.inAnalyze, target: p.Name, booms: &booms}
				}},
			)
			if err != nil {
				t.Fatal(err)
			}
			eng := runner.New(runner.Options{MaxDyn: testMaxDyn, BSAs: reg, Workers: tc.workers})
			_, hs := newTestServer(t, Config{Engine: eng})

			const bad = `{"bench":"mm","core":"OOO2","deadline_ms":20000}`
			var wg sync.WaitGroup
			codes := make([]int, 2)
			for i := range codes {
				wg.Add(1)
				go func() {
					defer wg.Done()
					resp, err := http.Post(hs.URL+"/v1/evaluate", "application/json", strings.NewReader(bad))
					if err != nil {
						t.Error(err)
						return
					}
					resp.Body.Close()
					codes[i] = resp.StatusCode
				}()
			}
			wg.Wait()
			for i, code := range codes {
				if code != http.StatusInternalServerError {
					t.Errorf("concurrent request %d: status %d, want 500", i, code)
				}
			}

			// The key is not wedged: the next request computes again —
			// the model panics anew — and fails fast, instead of waiting
			// out its deadline (504) or replaying a cached failure.
			before := booms.Load()
			if resp, body := post(t, hs.URL+"/v1/evaluate", bad); resp.StatusCode != http.StatusInternalServerError {
				t.Fatalf("repeat request: status %d, want 500: %s", resp.StatusCode, body)
			}
			if booms.Load() == before {
				t.Error("repeat request did not run the computation again")
			}
			if resp, body := post(t, hs.URL+"/v1/evaluate", `{"bench":"fft","core":"OOO2"}`); resp.StatusCode != http.StatusOK {
				t.Fatalf("other key: status %d, want 200: %s", resp.StatusCode, body)
			}
			resp, err := http.Get(hs.URL + "/healthz")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("/healthz status %d after panics", resp.StatusCode)
			}
			// The concurrent pair ran as one or two flights, the repeat as
			// one more.
			if n := eng.Registry().Counter("serve.panics").Value(); n < 2 {
				t.Errorf("serve.panics = %d, want >= 2", n)
			}
		})
	}
}
