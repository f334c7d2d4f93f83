package runner

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"exocore/internal/cores"
	"exocore/internal/obs"
	"exocore/internal/workloads"
)

// fullPipeline drives every stage for one benchmark: trace, tdg, sched
// and solos (via Solos) and eval (via Evaluate with the Oracle
// assignment).
func fullPipeline(e *Engine, name string) error {
	w, err := workloads.ByName(name)
	if err != nil {
		return err
	}
	sc, err := e.Solos(w, cores.OOO2, e.BSAs().Names())
	if err != nil {
		return err
	}
	_, _, err = e.Evaluate(w, cores.OOO2, sc.Oracle(e.BSAs().Names()))
	return err
}

func TestEventForEveryStageLookup(t *testing.T) {
	var events []Event
	e := New(Options{MaxDyn: testMaxDyn, Progress: func(ev Event) { events = append(events, ev) }})
	if err := fullPipeline(e, "mm"); err != nil {
		t.Fatal(err)
	}

	perStage := map[string]int64{}
	for _, ev := range events {
		perStage[ev.Stage]++
	}
	m := e.Metrics()
	var calls int64
	for _, s := range m.Stages {
		calls += s.Calls
		if perStage[s.Stage] != s.Calls {
			t.Errorf("stage %s: %d events, metrics report %d calls",
				s.Stage, perStage[s.Stage], s.Calls)
		}
	}
	if int64(len(events)) != calls {
		t.Errorf("%d events delivered for %d stage lookups", len(events), calls)
	}
	for _, st := range stageOrder {
		if perStage[st] == 0 {
			t.Errorf("no event for stage %q", st)
		}
	}
}

// eventLog runs the full pipeline over benches with the given worker
// count and returns, per benchmark, the ordered stage-lookup log.
// Progress callbacks are serialized by the engine, so no extra locking.
func eventLog(t *testing.T, workers int, benches []string) map[string][]string {
	t.Helper()
	perBench := make(map[string][]string)
	e := New(Options{MaxDyn: testMaxDyn, Workers: workers, Progress: func(ev Event) {
		bench, _, _ := strings.Cut(ev.Key, "/")
		perBench[bench] = append(perBench[bench],
			fmt.Sprintf("%s %s hit=%t", ev.Stage, ev.Key, ev.CacheHit))
	}})
	err := e.ForEach(len(benches), func(i int) error {
		return fullPipeline(e, benches[i])
	})
	if err != nil {
		t.Fatal(err)
	}
	return perBench
}

func TestEventOrderDeterministicAcrossWorkers(t *testing.T) {
	benches := []string{"mm", "cjpeg", "spmv", "nbody"}
	serial := eventLog(t, 1, benches)
	parallel := eventLog(t, 4, benches)
	for _, b := range benches {
		if len(serial[b]) == 0 {
			t.Fatalf("%s: no events in serial run", b)
		}
		if !reflect.DeepEqual(serial[b], parallel[b]) {
			t.Errorf("%s: event log differs between serial and -workers=4:\nserial:   %v\nparallel: %v",
				b, serial[b], parallel[b])
		}
	}
}

// tev is the subset of the Chrome trace-event wire format the nesting
// test inspects.
type tev struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	TID  int32             `json:"tid"`
	TS   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	Args map[string]string `json:"args"`
}

// TestTraceSpanNesting runs the pipeline with a Tracer attached and
// checks the exported Chrome trace: it validates as well-formed, every
// stage span is present, and the stage → segment → transform hierarchy
// holds by time containment within a lane.
func TestTraceSpanNesting(t *testing.T) {
	tr := obs.NewTracer("runner-test")
	e := New(Options{MaxDyn: testMaxDyn, Tracer: tr})
	if err := fullPipeline(e, "mm"); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if n, err := obs.ValidateTrace(buf.Bytes()); err != nil {
		t.Fatalf("trace invalid: %v", err)
	} else if n == 0 {
		t.Fatal("trace has no spans")
	}

	var events []tev
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	byCat := map[string][]tev{}
	for _, ev := range events {
		if ev.Ph == "X" {
			byCat[ev.Cat] = append(byCat[ev.Cat], ev)
		}
	}
	for _, cat := range []string{"stage", "run", "segment", "transform"} {
		if len(byCat[cat]) == 0 {
			t.Fatalf("no %q spans in trace", cat)
		}
	}
	for _, stage := range stageOrder {
		found := false
		for _, ev := range byCat["stage"] {
			if strings.HasPrefix(ev.Name, stage+" ") {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no span for stage %q", stage)
		}
	}

	contains := func(outer, inner tev) bool {
		return outer.TID == inner.TID &&
			outer.TS <= inner.TS && inner.TS+inner.Dur <= outer.TS+outer.Dur
	}
	enclosed := func(inner tev, outers []tev) bool {
		for _, o := range outers {
			if contains(o, inner) {
				return true
			}
		}
		return false
	}
	for _, ev := range byCat["run"] {
		if !enclosed(ev, byCat["stage"]) {
			t.Errorf("run span %q not inside any stage span", ev.Name)
		}
	}
	for _, ev := range byCat["segment"] {
		if !enclosed(ev, byCat["run"]) && !enclosed(ev, byCat["stage"]) {
			t.Errorf("segment span %q not inside any run or stage span", ev.Name)
		}
	}
	for _, ev := range byCat["transform"] {
		if !enclosed(ev, byCat["segment"]) {
			t.Errorf("transform span %q not inside any segment span", ev.Name)
		}
		if ev.Args["start"] == "" || ev.Args["end"] == "" {
			t.Errorf("transform span %q missing start/end args: %v", ev.Name, ev.Args)
		}
	}
}
