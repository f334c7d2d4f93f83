# bench4json.awk — convert `go test -bench` output for the three tracked
# benchmarks into BENCH_4.json, pairing each current measurement with its
# frozen pre-delta-evaluation baseline (commit 9a0538e, same machine
# class) so regressions are visible without re-running the old code.
# ContextConstruction is new in this change; its baseline is the same
# code path with delta evaluation disabled (no prefix publication, no
# cross-core shared pool), a mode the engine no longer offers.
#
# Usage: go test -bench 'BenchmarkExocoreRun|BenchmarkDSESweep|BenchmarkContextConstruction' \
#        -benchmem . | awk -f scripts/bench4json.awk > BENCH_4.json

BEGIN {
    base_ns["ExocoreRun"] = 2487042
    base_b["ExocoreRun"] = 4360090
    base_allocs["ExocoreRun"] = 108
    base_ns["DSESweep"] = 329337073
    base_b["DSESweep"] = 136282250
    base_allocs["DSESweep"] = 81556
    base_ns["ContextConstruction"] = 17110007
    base_b["ContextConstruction"] = 540816
    base_allocs["ContextConstruction"] = 1619
    order[1] = "ExocoreRun"
    order[2] = "DSESweep"
    order[3] = "ContextConstruction"
    ntracked = 3
}

/^Benchmark(ExocoreRun|DSESweep|ContextConstruction)[-\t ]/ {
    name = $1
    sub(/^Benchmark/, "", name)
    sub(/-[0-9]+$/, "", name)
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op") ns[name] = $(i - 1)
        if ($i == "B/op") b[name] = $(i - 1)
        if ($i == "allocs/op") allocs[name] = $(i - 1)
    }
}

END {
    printf "{\n  \"schema\": \"exocore-bench/v1\",\n  \"benchmarks\": [\n"
    n = 0
    for (k = 1; k <= ntracked; k++) {
        name = order[k]
        if (!(name in ns)) continue
        if (n++) printf ",\n"
        printf "    {\n      \"name\": \"%s\",\n", name
        printf "      \"baseline\": {\"ns_per_op\": %.0f, \"bytes_per_op\": %.0f, \"allocs_per_op\": %.0f},\n", \
            base_ns[name], base_b[name], base_allocs[name]
        printf "      \"current\": {\"ns_per_op\": %.0f, \"bytes_per_op\": %.0f, \"allocs_per_op\": %.0f},\n", \
            ns[name], b[name], allocs[name]
        printf "      \"speedup\": %.2f,\n", base_ns[name] / ns[name]
        printf "      \"allocs_ratio\": %.2f\n    }", base_allocs[name] / allocs[name]
    }
    printf "\n  ]\n}\n"
    if (n != ntracked) {
        print "bench4json: missing tracked benchmark output" > "/dev/stderr"
        exit 1
    }
}
