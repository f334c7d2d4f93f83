package serve

import (
	"bytes"
	"net/http/httptest"
	"testing"

	"exocore/internal/runner"
)

// FuzzEvalRequest feeds arbitrary bodies to the /v1/evaluate (sweep
// false) and /v1/sweep (sweep true) request path. Decoding and
// resolution must never panic. A body that resolves must yield a
// well-formed query; one that does not must get a 4xx from the real
// handler, which then never reaches an evaluation. Seeded from the
// request shapes the serve tests use (testdata/fuzz/FuzzEvalRequest).
func FuzzEvalRequest(f *testing.F) {
	eng := runner.New(runner.Options{MaxDyn: testMaxDyn})
	s, err := New(Config{Engine: eng})
	if err != nil {
		f.Fatal(err)
	}
	h := s.Handler()
	f.Fuzz(func(t *testing.T, sweep bool, body []byte) {
		path := "/v1/evaluate"
		if sweep {
			path = "/v1/sweep"
		}
		r := httptest.NewRequest("POST", path, bytes.NewReader(body))
		var err error
		if sweep {
			var req SweepRequest
			if err = decodeJSON(r, &req); err == nil {
				var q sweepQuery
				if q, err = resolveSweep(req, eng); err == nil {
					if len(q.wls) == 0 || (q.sched != "oracle" && q.sched != "amdahl") || q.key() == "" {
						t.Fatalf("%s resolved to an ill-formed query %+v", body, q)
					}
				}
			}
		} else {
			var req EvalRequest
			if err = decodeJSON(r, &req); err == nil {
				var q evalQuery
				if q, err = resolveEval(req, eng); err == nil {
					if len(q.wls) == 0 || (q.sched != "oracle" && q.sched != "amdahl") || q.key() == "" {
						t.Fatalf("%s resolved to an ill-formed query %+v", body, q)
					}
				}
			}
		}
		if err == nil {
			return // a valid request: serving it would evaluate
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(body)))
		if rec.Code < 400 || rec.Code >= 500 {
			t.Fatalf("%s %s: status %d for a request that does not resolve (%v)", path, body, rec.Code, err)
		}
	})
}
