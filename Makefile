GO ?= go

.PHONY: check build vet test race tier1 bench benchdiff benchsmoke tracesmoke servesmoke obssmoke graphsmoke memsmoke scalesmoke fabricsmoke fuzzsmoke tools clean

# The full pre-merge gate: vet + build + race-enabled tests + tier-1 +
# a single-iteration pass over every benchmark so they can't rot + a
# trace-export smoke test + the daemon end-to-end smoke test + the
# telemetry-plane smoke test (prom exposition, pprof, per-request trace
# fragments) + the graph-family sweep smoke test over the enlarged
# registry grid + the streaming-evaluation memory gate on a
# 10M-instruction trace + the paper-scale streaming gate (200M
# instructions, never materialized, inside the same budget) + a bounded
# run of every fuzz target.
check: vet build race tier1 benchsmoke tracesmoke servesmoke obssmoke graphsmoke memsmoke scalesmoke fabricsmoke fuzzsmoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Race-enabled run of the concurrency-sensitive packages (the runner
# engine, the exploration that fans out over it, the evaluation cache
# with its sharded outcome map and cross-core shared pool, the
# scheduling context's per-BSA singleflight candidate measurement, the
# serving layer's singleflight/admission machinery, the fabric's shard
# dispatcher with its work-stealing workers, and the persistent store's
# locked LRU index).
race:
	$(GO) test -race -count=1 ./internal/runner ./internal/dse ./internal/exocore ./internal/sched ./internal/serve ./internal/fabric ./internal/store

# Tier-1 suite (ROADMAP.md): everything must build and all tests pass.
tier1:
	$(GO) build ./... && $(GO) test ./...

test:
	$(GO) test ./...

# Run the tracked benchmarks and record them in BENCH_9.json.
# BENCH_7.json remains as the record of the previous optimization round;
# its "current" values carry over as this round's baselines (same
# machine). StreamedExocoreRun joins the tracked set: its frozen
# baseline is the materialized-path equivalent of the same work,
# measured at the commit that introduced streaming.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkExocoreRun|BenchmarkGraphExocoreRun|BenchmarkStreamedExocoreRun|BenchmarkDSESweep|BenchmarkContextConstruction|BenchmarkServeEvaluate' \
		-benchmem -benchtime=3x . | tee bench.out
	awk -f scripts/bench9json.awk bench.out > BENCH_9.json
	@rm -f bench.out
	@cat BENCH_9.json

# Regression gate: re-measure the tracked benchmarks and fail when any is
# slower than the value recorded in BENCH_9.json by more than the
# tolerance band.
benchdiff:
	$(GO) test -run '^$$' -bench 'BenchmarkExocoreRun|BenchmarkGraphExocoreRun|BenchmarkStreamedExocoreRun|BenchmarkDSESweep|BenchmarkContextConstruction|BenchmarkServeEvaluate' \
		-benchmem -benchtime=3x -count=4 . > bench.out
	awk -f scripts/benchdiff.awk BENCH_9.json bench.out
	@rm -f bench.out

# One iteration of every benchmark: catches compile breaks and panics.
benchsmoke:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime=1x . > /dev/null

# Trace-export smoke test: run one driver with -trace and validate the
# output as a well-formed, properly nested Chrome trace-event array.
tracesmoke:
	$(GO) run ./cmd/tdgsim -bench mm -trace /tmp/exocore-tracesmoke.json > /dev/null
	$(GO) run ./scripts/tracecheck /tmp/exocore-tracesmoke.json
	@rm -f /tmp/exocore-tracesmoke.json

# Daemon end-to-end smoke test: boot a real exocored on an ephemeral
# port, require /v1/evaluate and /v1/sweep to byte-match tdgsim/dse
# -json output for the same inputs, and require SIGTERM to drain to a
# clean exit 0.
servesmoke:
	@rm -rf /tmp/exocore-servesmoke-bin
	$(GO) build -o /tmp/exocore-servesmoke-bin/ ./cmd/exocored ./cmd/tdgsim ./cmd/dse
	$(GO) run ./scripts/servesmoke /tmp/exocore-servesmoke-bin
	@rm -rf /tmp/exocore-servesmoke-bin

# Telemetry-plane smoke test: boot exocored with always-on ring tracing,
# the runtime sampler and pprof, require evaluation responses to stay
# byte-identical to tdgsim -json, the Prometheus exposition to carry the
# golden series (including go_* runtime metrics), pprof to serve a
# profile, and the per-request trace fragment to validate.
obssmoke:
	@rm -rf /tmp/exocore-obssmoke-bin
	$(GO) build -o /tmp/exocore-obssmoke-bin/ ./cmd/exocored ./cmd/tdgsim
	$(GO) run ./scripts/obssmoke /tmp/exocore-obssmoke-bin
	@rm -rf /tmp/exocore-obssmoke-bin

# Graph-family sweep smoke test: one graph benchmark through the full
# 4-core × 32-subset grid of the five-model registry, validating the
# grid size, the GS-DAE designs and the per-design benchmark rows.
graphsmoke:
	$(GO) run ./cmd/dse -bench bfs -maxdyn 8000 -json > /tmp/exocore-graphsmoke.json
	$(GO) run ./scripts/graphsmoke /tmp/exocore-graphsmoke.json
	@rm -f /tmp/exocore-graphsmoke.json

# Fabric end-to-end smoke test: a coordinator over two real replica
# daemons (one with a persistent -store) must answer sweeps
# byte-identically to a single daemon, survive a replica SIGKILLed
# mid-sweep, come back warm when the stored replica restarts (nonzero
# store occupancy and store.hits), and reject bad -role/-replicas/-store
# flags with helpful messages.
fabricsmoke:
	@rm -rf /tmp/exocore-fabricsmoke-bin
	$(GO) build -o /tmp/exocore-fabricsmoke-bin/ ./cmd/exocored
	$(GO) run ./scripts/fabricsmoke /tmp/exocore-fabricsmoke-bin
	@rm -rf /tmp/exocore-fabricsmoke-bin

# Fuzz smoke test: each native fuzz target for a bounded time, on top of
# its seed corpus under testdata/fuzz/ (which plain `go test` replays).
fuzzsmoke:
	$(GO) test ./internal/store -run '^$$' -fuzz '^FuzzOpenSegment$$' -fuzztime 10s
	$(GO) test ./internal/report -run '^$$' -fuzz '^FuzzMerge$$' -fuzztime 10s
	$(GO) test ./internal/serve -run '^$$' -fuzz '^FuzzEvalRequest$$' -fuzztime 10s

# Streaming-evaluation memory gate: a 10M-instruction trace through the
# baseline engine must stay inside a fixed memory budget — the µDG is
# O(window), so only the trace itself scales with length. GOMEMLIMIT
# enforces the heap target for the whole run, not just at the final
# measurement.
memsmoke:
	GOMEMLIMIT=512MiB $(GO) run ./scripts/memsmoke

# Paper-scale streaming gate: 200M generator-driven instructions through
# the chunked source → pipelined annotation → streaming-TDG →
# windowed-µDG path, never materialized, inside the same 512 MiB budget
# memsmoke holds a 20× shorter materialized trace to. Also checks the
# streamed arm against the materialized arm for byte-identical results
# at an overlapping size before trusting the long run.
scalesmoke:
	GOMEMLIMIT=512MiB $(GO) run ./scripts/scalesmoke

# Build the drivers into ./bin.
tools:
	$(GO) build -o bin/ ./cmd/...

clean:
	rm -rf bin
