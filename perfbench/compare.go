package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json compare mode needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// judgement is one (metric, workload) row of a comparison.
type judgement struct {
	metric, workload string
	a, b             [3]float64 // quartiles
	n                int        // pairs
	won              float64    // share of pairs B won
	spreadA, spreadB float64    // (q3-q1)/median
	bound            float64    // 0 = none
	verdict          string
}

// compareMain reads two record files (A = base, B = change) and prints,
// per (metric, workload), each side's median and quartiles, the share
// of pairs B won and a verdict:
//
//   - improved: B wins at least 9 in 10 pairs (ties count for neither)
//     and the medians differ by more than A's own quartile spread;
//   - unresolved: either side's spread is wider than the metric's bound,
//     unless every B run beats every A run;
//   - no worse: B's median is within the bound of A's (for a metric with
//     no bound, within A's quartile spread);
//   - worse: otherwise.
//
// Records made on different machines are not compared. The exit status
// is 1 when any row is worse, any run failed its check or the machines
// differ.
func compareMain(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("benchmark", "BENCHMARK.json", "benchmark definition (metric direction and bounds)")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare [-benchmark BENCHMARK.json] A.jsonl B.jsonl")
		return 2
	}
	spec, err := readSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	a, err := readRecords(fs.Arg(0))
	if err == nil {
		var b []record
		b, err = readRecords(fs.Arg(1))
		if err == nil {
			return printComparison(w, spec, a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "perfbench compare:", err)
	return 2
}

func readSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func printComparison(w io.Writer, spec *benchSpec, a, b []record) int {
	status := 0
	if diff := machineDiff(a, b); len(diff) > 0 {
		fmt.Fprintln(w, "records come from different machines; not comparing:")
		for _, d := range diff {
			fmt.Fprintln(w, "  "+d)
		}
		return 1
	}
	for _, side := range []struct {
		name string
		rs   []record
	}{{"A", a}, {"B", b}} {
		for _, r := range side.rs {
			if !r.Correct {
				fmt.Fprintf(w, "%s: %s seed %d failed its output check: %s\n",
					side.name, r.Workload, r.Seed, strings.Join(r.Failures, "; "))
				status = 1
			}
		}
	}
	rows := judge(spec, a, b)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tworkload\tA median [q1, q3]\tB median [q1, q3]\tpairs\tB won\tspread A/B\tbound\tverdict")
	for _, r := range rows {
		bound := "-"
		if r.bound > 0 {
			bound = fmt.Sprintf("%.2f", r.bound)
		}
		fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%d\t%.0f%%\t%.3f/%.3f\t%s\t%s\n",
			r.metric, r.workload, r.a[1], r.a[0], r.a[2], r.b[1], r.b[0], r.b[2],
			r.n, 100*r.won, r.spreadA, r.spreadB, bound, r.verdict)
		if r.verdict == "worse" {
			status = 1
		}
	}
	tw.Flush()
	return status
}

// machineDiff lists fingerprint differences between any record of a
// and any record of b (or within one side).
func machineDiff(a, b []record) []string {
	all := append(append([]record(nil), a...), b...)
	if len(all) == 0 {
		return nil
	}
	seen := map[string]bool{}
	var out []string
	for _, r := range all[1:] {
		for _, d := range all[0].Fingerprint.sameMachine(r.Fingerprint) {
			if !seen[d] {
				seen[d] = true
				out = append(out, d)
			}
		}
	}
	return out
}

// judge compares every (metric, workload) pair both sides recorded.
// Runs pair up by seed when both sides ran that seed, else by order.
func judge(spec *benchSpec, a, b []record) []judgement {
	better := map[string]string{}
	bounds := map[string]float64{}
	for _, m := range spec.EndToEnd {
		better[m.Name], bounds[m.Name] = m.Better, m.Bound
	}
	for _, m := range spec.PerLayer {
		better[m.Name] = m.Better
	}
	type key struct{ metric, workload string }
	av, bv := map[key][]record{}, map[key][]record{}
	collect := func(rs []record, into map[key][]record) {
		for _, r := range rs {
			if !r.Correct {
				continue
			}
			for m := range r.Metrics {
				into[key{m, r.Workload}] = append(into[key{m, r.Workload}], r)
			}
		}
	}
	collect(a, av)
	collect(b, bv)
	var keys []key
	for k := range av {
		if len(bv[k]) > 0 {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	var out []judgement
	for _, k := range keys {
		lower := better[k.metric] != "higher"
		out = append(out, judgeOne(k.metric, k.workload, av[k], bv[k], lower, bounds[k.metric]))
	}
	return out
}

func judgeOne(metric, workload string, ar, br []record, lower bool, bound float64) judgement {
	val := func(r record) float64 { return r.Metrics[metric] }
	var as, bs []float64
	for _, r := range ar {
		as = append(as, val(r))
	}
	for _, r := range br {
		bs = append(bs, val(r))
	}
	// beats reports whether x is better than y in the metric's direction.
	beats := func(x, y float64) bool {
		if lower {
			return x < y
		}
		return x > y
	}
	j := judgement{metric: metric, workload: workload, bound: bound}
	j.a[0], j.a[1], j.a[2] = quartiles(as)
	j.b[0], j.b[1], j.b[2] = quartiles(bs)
	j.spreadA, j.spreadB = spread(j.a), spread(j.b)

	pairs := pairRuns(ar, br)
	wins := 0
	for _, p := range pairs {
		if beats(val(p[1]), val(p[0])) {
			wins++
		}
	}
	j.n = len(pairs)
	if j.n > 0 {
		j.won = float64(wins) / float64(j.n)
	}

	allBetter := true
	for _, x := range bs {
		for _, y := range as {
			allBetter = allBetter && beats(x, y)
		}
	}
	diff := j.b[1] - j.a[1]
	if !lower {
		diff = -diff
	}
	// diff > 0 means B is worse.
	switch {
	case j.won >= 0.9 && diff < 0 && -diff > j.a[2]-j.a[0]:
		j.verdict = "improved"
	case bound > 0 && (j.spreadA > bound || j.spreadB > bound) && !allBetter:
		j.verdict = "unresolved"
	case bound > 0 && j.a[1] != 0 && diff/abs(j.a[1]) <= bound:
		j.verdict = "no worse"
	case bound == 0 && diff <= j.a[2]-j.a[0]:
		j.verdict = "no worse"
	default:
		j.verdict = "worse"
	}
	return j
}

func spread(q [3]float64) float64 {
	if q[1] == 0 {
		return 0
	}
	return (q[2] - q[0]) / abs(q[1])
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// pairRuns pairs A's and B's runs in seed order, so two sets run over
// the same seeds pair seed by seed.
func pairRuns(ar, br []record) [][2]record {
	bySeed := func(rs []record) []record {
		s := append([]record(nil), rs...)
		sort.SliceStable(s, func(i, j int) bool { return s[i].Seed < s[j].Seed })
		return s
	}
	as, bs := bySeed(ar), bySeed(br)
	var pairs [][2]record
	for i := 0; i < len(as) && i < len(bs); i++ {
		pairs = append(pairs, [2]record{as[i], bs[i]})
	}
	return pairs
}
