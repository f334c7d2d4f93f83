// Package cli is the one flag surface shared by every cmd/ tool: a
// unified flag set (-bench, -core, -bsas, -sched, -json, -v/-vv,
// -maxdyn, -workers, -trace) with consistent parsing and validation, a
// lazily-constructed shared evaluation engine wired to structured
// progress logging and span tracing, and the common -json emission path
// producing the versioned report schema.
package cli

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"exocore/internal/bsa"
	"exocore/internal/cores"
	"exocore/internal/exocore"
	"exocore/internal/obs"
	"exocore/internal/report"
	"exocore/internal/runner"
	"exocore/internal/store"
	"exocore/internal/trace"
	"exocore/internal/workloads"
)

// QuickSet is the 6-benchmark subset used by -bench quick: two benchmarks
// per workload category, for fast iteration.
var QuickSet = []string{"mm", "nbody", "cjpeg", "mcf", "gzip", "stencil"}

// App holds the unified flag values for one tool invocation.
type App struct {
	// Tool is the binary name, used in error messages and the JSON
	// document header.
	Tool string

	// Unified flags.
	Bench   string // "all" | "quick" | comma-separated benchmark names
	Core    string // general-core name (Table 4)
	BSAs    string // "all" | "none" | comma-separated BSA names
	Sched   string // "oracle" | "amdahl"
	JSON    bool   // emit the versioned JSON schema instead of text
	Verbose bool   // progress + engine metrics on stderr
	VV      bool   // debug-level logging (implies -v)
	MaxDyn  int    // dynamic-instruction budget per benchmark
	Workers int    // worker-pool bound (0 = GOMAXPROCS)

	// ChunkInsts is the -chunk-insts value: dynamic instructions per
	// streaming chunk for trace synthesis.
	ChunkInsts int

	// StoreDir is the -store value: a directory for the persistent
	// content-addressed evaluation-unit store ("" = no durable tier).
	// Opened and validated during Parse, so an unwritable or
	// format-mismatched directory fails fast with a clear error.
	StoreDir string

	// Profiling and measurement flags.
	CPUProfile string // write a CPU profile to this file
	MemProfile string // write an allocation profile to this file on Close
	Trace      string // write a Chrome trace-event JSON file on Close

	// Stderr receives progress logging and Fail output; Stdout receives
	// Emit's JSON document. Both default to the os streams and are
	// overridable for tests.
	Stderr io.Writer
	Stdout io.Writer

	fs       *flag.FlagSet
	engine   *runner.Engine
	log      *obs.Logger
	tracer   *obs.Tracer
	cpuProfF *os.File // open while CPU profiling is active
	store    *store.Store
	obsReg   *obs.Registry // shared engine/store registry when -store is set

	// Resolved during Parse.
	core cores.Config
	wls  []*workloads.Workload
	bsas []string
	reg  *bsa.Registry
}

// New creates an App and registers the unified flag set on its own
// FlagSet. benchDefault customizes -bench's default ("all" for sweep
// tools, a single benchmark for point tools).
func New(tool, benchDefault string) *App {
	a := &App{
		Tool:   tool,
		Stderr: os.Stderr,
		Stdout: os.Stdout,
		fs:     flag.NewFlagSet(tool, flag.ExitOnError),
	}
	a.fs.StringVar(&a.Bench, "bench", benchDefault, "benchmarks: all | quick | comma-separated names")
	a.fs.StringVar(&a.Core, "core", "OOO2", "general core: IO2, OOO2, OOO4, OOO6")
	a.fs.StringVar(&a.BSAs, "bsas", "all", "BSAs available: all | none | comma-separated of "+strings.Join(bsa.Default().Names(), ","))
	a.fs.StringVar(&a.Sched, "sched", "oracle", "scheduler: oracle | amdahl")
	a.fs.BoolVar(&a.JSON, "json", false, "emit the versioned JSON result schema ("+report.Schema+")")
	a.fs.BoolVar(&a.Verbose, "v", false, "progress and engine metrics on stderr")
	a.fs.BoolVar(&a.VV, "vv", false, "debug-level logging on stderr (implies -v)")
	a.fs.IntVar(&a.MaxDyn, "maxdyn", runner.DefaultMaxDyn, "dynamic instruction budget per benchmark")
	a.fs.IntVar(&a.Workers, "workers", 0, "worker pool size (0 = GOMAXPROCS)")
	a.fs.IntVar(&a.ChunkInsts, "chunk-insts", trace.DefaultChunkInsts,
		"dynamic instructions per streaming trace chunk")
	a.fs.StringVar(&a.StoreDir, "store", "",
		"persistent evaluation-unit store directory (created if missing; a restarted process comes up warm)")
	a.fs.StringVar(&a.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	a.fs.StringVar(&a.MemProfile, "memprofile", "", "write an allocation profile to this file at exit")
	a.fs.StringVar(&a.Trace, "trace", "", "write a Chrome trace-event JSON file (load in Perfetto) at exit")
	return a
}

// Verbosity maps the -v/-vv flags to a logging level: 0 (warnings
// only), 1 (-v: info) or 2 (-vv: debug).
func (a *App) Verbosity() int {
	switch {
	case a.VV:
		return 2
	case a.Verbose:
		return 1
	}
	return 0
}

// Log returns the tool's structured logger (constructing it on first
// use), which serializes records into whole lines so concurrent workers
// cannot interleave mid-line.
func (a *App) Log() *obs.Logger {
	if a.log == nil {
		a.log = obs.NewLogger(a.Stderr, a.Tool, a.Verbosity())
	}
	return a.log
}

// Flags exposes the flag set so tools can register tool-specific flags
// before Parse.
func (a *App) Flags() *flag.FlagSet { return a.fs }

// SetMaxDynDefault overrides -maxdyn's default before Parse (tools with
// a cheaper customary budget). An explicit -maxdyn still wins.
func (a *App) SetMaxDynDefault(n int) {
	a.MaxDyn = n
	a.fs.Lookup("maxdyn").DefValue = fmt.Sprint(n)
}

// Parse parses args and validates every unified flag, resolving the core
// config, workload list and BSA names.
func (a *App) Parse(args []string) error {
	if err := a.fs.Parse(args); err != nil {
		return err
	}
	core, ok := cores.ConfigByName(a.Core)
	if !ok {
		return fmt.Errorf("unknown core %q (have IO2, OOO2, OOO4, OOO6)", a.Core)
	}
	a.core = core

	wls, err := ResolveBenchSpec(a.Bench)
	if err != nil {
		return err
	}
	a.wls = wls

	bsas, err := ResolveBSASpec(a.BSAs)
	if err != nil {
		return err
	}
	a.bsas = bsas
	// -bsas restricts the tool's whole model registry, not just the
	// scheduler's available set: the engine builds plans, sweep tools
	// enumerate subsets and area accounting follows a.reg, so
	// "-bsas SIMD,DP-CGRA,NS-DF,Trace-P" reproduces the original
	// four-BSA design space exactly.
	a.reg, err = bsa.Default().Subset(bsas)
	if err != nil {
		return err
	}

	switch a.Sched {
	case "oracle", "amdahl":
	default:
		return fmt.Errorf("unknown scheduler %q (have oracle, amdahl)", a.Sched)
	}
	if a.MaxDyn <= 0 {
		a.MaxDyn = runner.DefaultMaxDyn
	}
	if err := checkChunkInsts(a.ChunkInsts); err != nil {
		return err
	}
	if a.VV {
		a.Verbose = true
	}
	a.log = obs.NewLogger(a.Stderr, a.Tool, a.Verbosity())
	if a.Trace != "" {
		a.tracer = obs.NewTracer(a.Tool)
	}
	if a.StoreDir != "" {
		// The store shares one metrics registry with the engine, so
		// store.* instruments ride every metrics snapshot (-v, result
		// JSON, the daemon's /metricsz).
		a.obsReg = obs.NewRegistry()
		st, err := store.Open(a.StoreDir, store.Options{Reg: a.obsReg})
		if err != nil {
			return fmt.Errorf("-store: %w", err)
		}
		a.store = st
	}
	if a.CPUProfile != "" {
		f, err := os.Create(a.CPUProfile)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		a.cpuProfF = f
	}
	return nil
}

// Close stops the CPU profile, writes the allocation profile and the
// span trace, if the respective flags were given, closes the -store
// store (sealing its active segment), and returns the first failure
// so callers can surface it in the exit status. Idempotent; called from
// Emit, Finish and Fail, and safe to defer from main as a catch-all.
func (a *App) Close() error {
	var firstErr error
	keep := func(err error) {
		if firstErr == nil && err != nil {
			firstErr = err
		}
	}
	if a.cpuProfF != nil {
		pprof.StopCPUProfile()
		if err := a.cpuProfF.Close(); err != nil {
			keep(fmt.Errorf("-cpuprofile: %w", err))
		}
		a.cpuProfF = nil
	}
	if a.MemProfile != "" {
		path := a.MemProfile
		a.MemProfile = ""
		if err := writeMemProfile(path); err != nil {
			keep(fmt.Errorf("-memprofile: %w", err))
		}
	}
	if a.tracer != nil && a.Trace != "" {
		t := a.tracer
		a.tracer = nil
		if err := writeTrace(a.Trace, t); err != nil {
			keep(fmt.Errorf("-trace: %w", err))
		}
	}
	if err := a.store.Close(); err != nil {
		keep(fmt.Errorf("-store: %w", err))
	}
	return firstErr
}

func writeMemProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // materialize up-to-date allocation statistics
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeTrace(path string, t *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// MustParse parses os.Args[1:] and exits with a tool-prefixed message on
// invalid flags.
func (a *App) MustParse() {
	if err := a.Parse(os.Args[1:]); err != nil {
		a.Fail(err)
	}
}

// ResolveBenchSpec expands a -bench value ("all", "quick" or a comma
// list) into workloads.
func ResolveBenchSpec(spec string) ([]*workloads.Workload, error) {
	switch spec {
	case "", "all":
		return workloads.All(), nil
	case "quick":
		spec = strings.Join(QuickSet, ",")
	}
	var out []*workloads.Workload
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty benchmark list %q", spec)
	}
	return out, nil
}

// ResolveBSASpec expands a -bsas value ("all", "none"/"" or a comma
// list) into validated BSA names against the default registry, in
// canonical order for "all".
func ResolveBSASpec(spec string) ([]string, error) {
	return ResolveBSASpecWith(bsa.Default(), spec)
}

// ResolveBSASpecWith is ResolveBSASpec against an explicit registry
// (eg. a daemon engine's restricted registry). Unknown names error with
// the registry's allowed list and a did-you-mean suggestion.
func ResolveBSASpecWith(reg *bsa.Registry, spec string) ([]string, error) {
	switch spec {
	case "all":
		return reg.Names(), nil
	case "", "none":
		return nil, nil
	}
	var out []string
	for _, n := range strings.Split(spec, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		if err := reg.Check(n); err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	return out, nil
}

// checkChunkInsts validates a -chunk-insts value with did-you-mean
// guidance: it must land in [trace.MinChunkInsts, trace.MaxChunkInsts].
func checkChunkInsts(n int) error {
	switch {
	case n < trace.MinChunkInsts:
		return fmt.Errorf("-chunk-insts %d is below the minimum %d; did you mean %d?",
			n, trace.MinChunkInsts, trace.MinChunkInsts)
	case n > trace.MaxChunkInsts:
		return fmt.Errorf("-chunk-insts %d exceeds the maximum %d; did you mean the default %d?",
			n, trace.MaxChunkInsts, trace.DefaultChunkInsts)
	}
	return nil
}

// CoreConfig returns the validated -core config.
func (a *App) CoreConfig() cores.Config { return a.core }

// Workloads returns the validated -bench workload list.
func (a *App) Workloads() []*workloads.Workload { return a.wls }

// BSANames returns the validated -bsas list.
func (a *App) BSANames() []string { return a.bsas }

// Registry returns the model registry restricted to the -bsas list (the
// registry the tool's engine is built with).
func (a *App) Registry() *bsa.Registry { return a.reg }

// UseAmdahl reports whether -sched amdahl was selected.
func (a *App) UseAmdahl() bool { return a.Sched == "amdahl" }

// Engine returns the tool's shared evaluation engine, constructing it on
// first use. With -v, cache misses are narrated through the structured
// logger; with -trace, stage/segment/transform spans are recorded.
func (a *App) Engine() *runner.Engine {
	if a.engine == nil {
		opts := runner.Options{MaxDyn: a.MaxDyn, Workers: a.Workers,
			BSAs: a.Registry(), ChunkInsts: a.ChunkInsts,
			Tracer: a.tracer, Log: a.Log(),
			Persist: a.persist(), Reg: a.obsReg}
		if a.Verbose {
			log := a.Log()
			opts.Progress = func(ev runner.Event) {
				if !ev.CacheHit {
					log.Info(fmt.Sprintf("%-5s %-28s %8.1fms",
						ev.Stage, ev.Key, float64(ev.Wall.Microseconds())/1000))
				}
			}
		}
		a.engine = runner.New(opts)
	}
	return a.engine
}

// Store returns the opened -store directory, or nil when no durable
// tier was requested.
func (a *App) Store() *store.Store { return a.store }

// persist adapts the optional store to the engine's Persist interface,
// keeping the interface value truly nil (not a typed nil) when -store
// is unset.
func (a *App) persist() exocore.Persist {
	if a.store == nil {
		return nil
	}
	return a.store
}

// CheckEnum validates a flag value against its allowed set, with the
// same did-you-mean guidance the BSA registry gives for -bsas. The
// flag name is included verbatim in the error.
func CheckEnum(flagName, val string, allowed ...string) error {
	for _, ok := range allowed {
		if val == ok {
			return nil
		}
	}
	msg := fmt.Sprintf("%s: unknown value %q (have %s)", flagName, val, strings.Join(allowed, ", "))
	if near := bsa.Nearest(val, allowed); near != "" {
		msg += fmt.Sprintf(" — did you mean %q?", near)
	}
	return fmt.Errorf("%s", msg)
}

// Tracer returns the -trace span tracer, or nil when tracing is off.
// Tools pass it to code paths that run outside the shared engine.
func (a *App) Tracer() *obs.Tracer { return a.tracer }

// SetTracer installs a tracer for tools that construct their own — the
// daemon's always-on flight-recorder ring, for example. An explicit
// -trace tracer wins (its spans still ride the same recorder machinery);
// call before the first Engine() use so stage spans land on it. Returns
// the active tracer.
func (a *App) SetTracer(t *obs.Tracer) *obs.Tracer {
	if a.tracer == nil {
		a.tracer = t
	}
	return a.tracer
}

// Emit writes the document to Stdout as indented JSON, attaching the
// engine metrics snapshot first (if an engine was used), and closes any
// active profiles, failing the tool if finalization errors.
func (a *App) Emit(doc *report.Document) {
	if a.engine != nil {
		m := a.engine.Metrics()
		doc.Metrics = &m
	}
	if err := a.Close(); err != nil {
		a.Fail(err)
	}
	if err := doc.Write(a.Stdout); err != nil {
		a.Fail(err)
	}
}

// Finish prints the engine metrics to stderr when -v is set and closes
// any active profiles, failing the tool if finalization errors.
// Text-mode tools call it after their report; JSON mode embeds metrics
// instead.
func (a *App) Finish() {
	closeErr := a.Close()
	if a.Verbose && a.engine != nil {
		log := a.Log()
		m := a.engine.Metrics()
		log.Info("engine metrics:")
		for _, s := range m.Stages {
			log.Info(fmt.Sprintf("  %-5s calls=%-4d hits=%-4d misses=%-4d wall=%8.1fms insts=%d",
				s.Stage, s.Calls, s.Hits, s.Misses, float64(s.WallNS)/1e6, s.Insts))
		}
		if c := m.EvalCache; c != nil {
			log.Info(fmt.Sprintf("  eval-cache hits=%-4d misses=%-4d entries=%-4d prefixes=%-4d sigs=%-4d shared=%-4d arena-reuse=%.1fMB",
				c.Hits, c.Misses, c.Entries, c.PrefixEntries, c.InternedSigs, c.SharedHits, float64(c.BytesReused)/(1<<20)))
		}
		printHistogramQuantiles(log, m.Points)
	}
	if closeErr != nil {
		a.Fail(closeErr)
	}
}

// printHistogramQuantiles renders each populated histogram instrument as
// one row of bucket-interpolated p50/p95/p99 estimates. Nanosecond
// histograms (the *_ns convention) print in milliseconds; others print
// the raw interpolated value.
func printHistogramQuantiles(log *obs.Logger, points []obs.MetricPoint) {
	for _, p := range points {
		if p.Kind != "histogram" || p.Count == 0 {
			continue
		}
		p50, p95, p99 := p.Quantile(0.50), p.Quantile(0.95), p.Quantile(0.99)
		if strings.HasSuffix(p.Name, "_ns") {
			log.Info(fmt.Sprintf("  %-26s n=%-6d p50=%9.3fms p95=%9.3fms p99=%9.3fms",
				p.Name, p.Count, p50/1e6, p95/1e6, p99/1e6))
		} else {
			log.Info(fmt.Sprintf("  %-26s n=%-6d p50=%9.0f p95=%9.0f p99=%9.0f",
				p.Name, p.Count, p50, p95, p99))
		}
	}
}

// Fail prints a tool-prefixed error and exits 1 (closing profiles first,
// since os.Exit skips deferred calls).
func (a *App) Fail(err error) {
	if cerr := a.Close(); cerr != nil {
		a.Log().Error(cerr.Error())
	}
	a.Log().Error(err.Error())
	os.Exit(1)
}
