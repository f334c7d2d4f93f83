// Package workloads provides the ~46 synthetic benchmark kernels standing
// in for the paper's suites (Table 3): TPT and Parboil (regular),
// Mediabench, TPCH and SPECfp (semi-regular), SPECint (irregular). Each
// kernel is written to exhibit the *program behaviors* (Figure 6) of its
// original — data parallelism, memory/compute separability, control
// criticality and bias — so the BSA analyzers and transforms exercise the
// same code paths they would on the real binaries (see DESIGN.md
// substitutions).
package workloads

import (
	"fmt"
	"sort"

	"exocore/internal/cache"
	"exocore/internal/prog"
	"exocore/internal/sim"
	"exocore/internal/trace"
)

// Category classifies workloads as the paper's Figure 11 does.
type Category string

// Workload categories.
const (
	Regular     Category = "regular"      // TPT, Parboil
	SemiRegular Category = "semi-regular" // Mediabench, TPCH, SPECfp
	Irregular   Category = "irregular"    // SPECint
	Graph       Category = "graph"        // graph analytics (CSR traversals)
)

// Categories lists every category in presentation order.
var Categories = []Category{Regular, SemiRegular, Irregular, Graph}

// Workload is one benchmark kernel.
type Workload struct {
	Name     string
	Suite    string
	Category Category
	// Build returns the program and a state-preparation function that
	// initializes memory and seed registers (the "fast-forwarded"
	// pre-region state of the paper's methodology).
	Build func() (*prog.Program, func(*sim.State))
}

var registry []*Workload

// Register adds a workload to the registry and returns it. Built-in
// kernels register themselves from init-time variable initializers;
// external packages may add their own before the first All/ByName call.
// Duplicate names panic: every tool keys traces and results by name.
func Register(w *Workload) *Workload {
	for _, have := range registry {
		if have.Name == w.Name {
			panic(fmt.Sprintf("workloads: duplicate workload name %q", w.Name))
		}
	}
	registry = append(registry, w)
	return w
}

func register(w *Workload) *Workload { return Register(w) }

// All returns every registered workload, ordered by suite then name.
func All() []*Workload {
	out := append([]*Workload(nil), registry...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Suite != out[j].Suite {
			return out[i].Suite < out[j].Suite
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// ByCategory returns the workloads in a category.
func ByCategory(c Category) []*Workload {
	var out []*Workload
	for _, w := range All() {
		if w.Category == c {
			out = append(out, w)
		}
	}
	return out
}

// ByName returns the named workload, or an error naming the nearest
// registered workload when the name looks like a typo.
func ByName(name string) (*Workload, error) {
	for _, w := range registry {
		if w.Name == name {
			return w, nil
		}
	}
	if near := nearestName(name); near != "" {
		return nil, fmt.Errorf("workloads: unknown workload %q — did you mean %q?", name, near)
	}
	return nil, fmt.Errorf("workloads: unknown workload %q", name)
}

// nearestName returns the registered name closest to name within a
// conservative edit-distance threshold, or "".
func nearestName(name string) string {
	best, bestDist := "", 3
	for _, w := range All() {
		if d := editDistance(name, w.Name); d < bestDist {
			best, bestDist = w.Name, d
		}
	}
	return best
}

// editDistance is the Levenshtein distance between two strings.
func editDistance(a, b string) int {
	if len(a) == 0 {
		return len(b)
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, min(cur[j-1]+1, prev[j-1]+cost))
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// Trace builds, functionally executes and annotates the workload with the
// default cache hierarchy and branch predictor, producing the trace the
// TDG is constructed from. maxDyn ≤ 0 selects the default budget.
func (w *Workload) Trace(maxDyn int) (*trace.Trace, error) {
	return w.TraceWith(maxDyn, cache.DefaultHierarchy())
}

// TraceWith is Trace with a caller-supplied cache hierarchy (memory-system
// ablations). The hierarchy must be fresh: annotation mutates its state.
// It drains the workload's chunked Source, the one trace producer.
func (w *Workload) TraceWith(maxDyn int, h *cache.Hierarchy) (*trace.Trace, error) {
	if maxDyn <= 0 {
		maxDyn = sim.DefaultMaxDyn
	}
	tr, err := trace.Materialize(w.Source(SourceConfig{MaxDyn: maxDyn, Hierarchy: h}), min(maxDyn, 1<<16))
	if err != nil {
		return nil, err
	}
	return tr, nil
}

// rng is a tiny deterministic xorshift generator for kernel input data.
type rng uint64

func newRng(seed uint64) *rng { r := rng(seed*2685821657736338717 + 1); return &r }

func (r *rng) next() uint64 {
	x := uint64(*r)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*r = rng(x)
	return x
}

// i64 returns a pseudo-random integer in [0, n).
func (r *rng) i64(n int64) int64 {
	if n <= 0 {
		return 0
	}
	return int64(r.next() % uint64(n))
}

// f64 returns a pseudo-random float in [0, 1).
func (r *rng) f64() float64 { return float64(r.next()%(1<<52)) / (1 << 52) }
