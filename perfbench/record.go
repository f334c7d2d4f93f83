package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// fingerprint identifies the machine and build a record was made on, so
// that compare mode refuses to judge numbers from two different machines.
type fingerprint struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOSArch   string `json:"goos_goarch"`
	// Commit is the source revision (PERFBENCH_COMMIT, set by run.sh;
	// "unknown" outside a git checkout).
	Commit string `json:"commit"`
}

func machineFingerprint() fingerprint {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return fingerprint{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOSArch:   runtime.GOOS + "/" + runtime.GOARCH,
		Commit:     commit,
	}
}

// sameMachine reports the fields in which two fingerprints' machines
// differ (the commit may differ: that is what an A/B compares).
func (f fingerprint) sameMachine(g fingerprint) []string {
	var diff []string
	add := func(name string, a, b any) {
		if a != b {
			diff = append(diff, fmt.Sprintf("%s: %v vs %v", name, a, b))
		}
	}
	add("cpu_model", f.CPUModel, g.CPUModel)
	add("nproc", f.NProc, g.NProc)
	add("gomaxprocs", f.GOMAXPROCS, g.GOMAXPROCS)
	add("go_version", f.GoVersion, g.GoVersion)
	add("goos_goarch", f.GOOSArch, g.GOOSArch)
	return diff
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// record is one run, as appended to the records file.
type record struct {
	Fingerprint fingerprint        `json:"fingerprint"`
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Seconds     float64            `json:"seconds"`
	Trace       bool               `json:"trace"`
	Correct     bool               `json:"correct"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	ErrorShare  float64            `json:"error_share"`
	Failures    []string           `json:"failures,omitempty"`
	Metrics     map[string]float64 `json:"metrics"`
	Units       map[string]string  `json:"units"`
	Extra       map[string]float64 `json:"extra,omitempty"`
	Time        string             `json:"time"`
}

func newRecord(cfg config, out *outcome, defs []metricDef) record {
	r := record{
		Fingerprint: machineFingerprint(),
		Workload:    cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds.Seconds(), Trace: cfg.trace,
		Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed,
		Failures: out.failures,
		Metrics:  map[string]float64{}, Units: map[string]string{}, Extra: out.extra,
		Time: time.Now().UTC().Format(time.RFC3339),
	}
	if out.attempted > 0 {
		r.ErrorShare = float64(out.failed) / float64(out.attempted)
	}
	if r.Correct {
		for _, d := range defs {
			r.Metrics[d.name] = out.metrics[d.name]
			r.Units[d.name] = d.unit
		}
	}
	return r
}

func appendRecord(path string, r record) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("write record: %w", err)
	}
	return f.Close()
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var r record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}
