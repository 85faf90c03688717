#!/bin/sh
# Hot-path benchmark runner: exercises the end-to-end run benchmarks
# plus the pcm/thermal/cluster microbenchmarks several times and
# records the samples (with per-benchmark medians) as JSON.
#
# Usage: scripts/bench.sh [count] [out.json]
#
#   count     repetitions per benchmark (go test -count; default 5)
#   out.json  output path (default BENCH_PR10.json in the repo root)
#
# Medians over several -count repetitions are the comparison currency:
# single runs on shared machines swing tens of percent. Compare the
# committed BENCH_PR10.json against a fresh run on the same host, not
# across hosts. The BenchmarkSessionStep median vs BenchmarkRun is the
# session-seam overhead bound (acceptance: ≤5%).
#
# A/B baseline: unless BENCH_NO_BASE=1, the shared benchmarks also run
# in a scratch worktree of $BASE (default: HEAD) and land in the same
# JSON under BenchmarkBase* names, so a working-tree change can be
# compared against the commit it started from on the same host in the
# same sitting.
set -eu

cd "$(dirname "$0")/.."

COUNT=${1:-5}
OUT=${2:-BENCH_PR10.json}
TMP=$(mktemp)
BASETREE=
cleanup() {
    rm -f "$TMP"
    if [ -n "$BASETREE" ]; then
        git worktree remove --force "$BASETREE" >/dev/null 2>&1 || true
    fi
}
trap cleanup EXIT

run_bench() {
    # run_bench <package> <pattern> <benchtime>
    echo "== $1 ($2)" >&2
    go test -run '^$' -bench "$2" -benchtime "$3" -count "$COUNT" "$1" >>"$TMP"
}

run_bench .                   '^(BenchmarkRun|BenchmarkSessionStep|BenchmarkRunTraced|BenchmarkRunStreamed|BenchmarkRunFullObservability)$'            20x
run_bench .                   '^BenchmarkAblationStudy(Cached|Uncached)$'                            5x
run_bench .                   '^BenchmarkAdaptiveGVStudy(Cached|Uncached)$'                          3x
run_bench ./internal/pcm/     'BenchmarkPackApply|BenchmarkEstimatorUpdate|BenchmarkCurveProjection' 2000000x
run_bench ./internal/thermal/ 'BenchmarkNodeStep'                                                    200000x
run_bench ./internal/cluster/ 'BenchmarkClusterStepWorkers'                                          500x

# FleetStep scaling: the worker-count comparison is sampled
# round-robin — one -count=1 invocation per variant per round — rather
# than as one consecutive block per variant. Host throughput drifts
# over tens of seconds on shared machines; consecutive sampling folds
# that drift into the variant comparison, interleaving spreads it
# evenly so the per-variant medians are comparable.
fleetstep() {
    # fleetstep <n> <benchtime> <rounds>
    echo "== ./internal/cluster/ (BenchmarkFleetStep n=$1, $3 interleaved rounds)" >&2
    r=0
    while [ "$r" -lt "$3" ]; do
        for w in 1 4 8; do
            go test -run '^$' -bench "^BenchmarkFleetStep\$/^n=$1\$/^workers=$w\$" \
                -benchtime "$2" -count 1 ./internal/cluster/ >>"$TMP"
        done
        r=$((r + 1))
    done
}

fleetstep 1000    500x "$COUNT"
fleetstep 10000   100x "$COUNT"
fleetstep 100000  20x  $((COUNT + 2))
fleetstep 1000000 3x   3

# A/B leg: the same shared benchmarks at $BASE, renamed Benchmark ->
# BenchmarkBase so the aggregator files them separately. FleetStep only
# exists in trees that have the SoA store, so the baseline sticks to
# the benchmarks both sides define.
if [ "${BENCH_NO_BASE:-0}" != 1 ] && git rev-parse --verify -q "${BASE:-HEAD}" >/dev/null; then
    BASETREE=$(mktemp -d)
    rmdir "$BASETREE"
    git worktree add --detach "$BASETREE" "${BASE:-HEAD}" >/dev/null
    echo "== baseline @ $(git rev-parse --short "${BASE:-HEAD}")" >&2
    BASETMP=$(mktemp)
    (cd "$BASETREE" && \
        go test -run '^$' -bench 'BenchmarkClusterStepWorkers' -benchtime 500x -count "$COUNT" ./internal/cluster/ && \
        go test -run '^$' -bench 'BenchmarkNodeStep' -benchtime 200000x -count "$COUNT" ./internal/thermal/) >"$BASETMP"
    sed 's/^Benchmark/BenchmarkBase/' "$BASETMP" >>"$TMP"
    rm -f "$BASETMP"
fi

awk -v count="$COUNT" '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)  # strip the GOMAXPROCS suffix
    ns = ""; bop = ""; allocs = ""
    for (i = 2; i < NF; i++) {
        if ($(i + 1) == "ns/op") ns = $i
        if ($(i + 1) == "B/op") bop = $i
        if ($(i + 1) == "allocs/op") allocs = $i
    }
    if (ns == "") next
    n = samples[name]++
    val[name, n] = ns
    lastb[name] = bop
    lasta[name] = allocs
    if (!(name in order)) { order[name] = ++norder; names[norder] = name }
}
END {
    printf "{\n  \"count\": %d,\n  \"benchmarks\": [\n", count
    for (k = 1; k <= norder; k++) {
        name = names[k]
        n = samples[name]
        # insertion sort the samples for the median
        for (i = 0; i < n; i++) sorted[i] = val[name, i] + 0
        for (i = 1; i < n; i++) {
            v = sorted[i]
            for (j = i - 1; j >= 0 && sorted[j] > v; j--) sorted[j + 1] = sorted[j]
            sorted[j + 1] = v
        }
        if (n % 2) median = sorted[int(n / 2)]
        else median = (sorted[n / 2 - 1] + sorted[n / 2]) / 2
        printf "    {\"name\": \"%s\", \"median_ns_op\": %g, \"samples_ns_op\": [", name, median
        for (i = 0; i < n; i++) printf "%s%g", (i ? ", " : ""), val[name, i] + 0
        printf "]"
        if (lastb[name] != "") printf ", \"b_op\": %s, \"allocs_op\": %s", lastb[name], lasta[name]
        printf "}%s\n", (k < norder ? "," : "")
    }
    printf "  ]\n}\n"
}' "$TMP" >"$OUT"

echo "wrote $OUT" >&2
