#!/bin/sh
# Repo-wide verification: formatting, vet, build, tests, and a race
# pass over the concurrency-bearing packages. Run from the repo root
# (or via `make check`).
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== vmtlint (strict: stale allows are failures; warm cache in .vmtlint-cache)"
go run ./cmd/vmtlint -strict -cache .vmtlint-cache -cachestats ./...

echo "== go build"
go build ./...

echo "== go test"
go test ./...

echo "== vmtbench module (vet + short tests)"
# The benchmark is a nested module that root ./... never builds; vet
# and test it here so an exported-API change cannot break it unseen.
(cd vmtbench && go vet ./... && go test -short -count=1 ./...)

echo "== golden + property harness (short mode)"
go test -short -count=1 \
    -run 'TestGolden|Property|BitIdentical' \
    . ./internal/pcm/ ./internal/thermal/ ./internal/cluster/

echo "== differential oracle (SoA fleet vs scalar Node.Step, bit-exact; occupancy index vs linear scans)"
go test -count=1 -run 'TestFleetOracle|TestFleetVecKernel' ./internal/thermal/
# Every index-backed VMT choice replayed with the scan it replaced,
# under faults, quarantine and overrides; the index rows against a
# rebuild from server state; the wrapping first-set-bit helper.
go test -count=1 -run 'TestIndexMatchesScanUnderChurn' ./internal/core/
go test -count=1 -run 'TestOccupancyIndexProperty' ./internal/cluster/
go test -count=1 -run 'TestFirstWrap' ./internal/bitset/

echo "== spec round-trip (encode -> decode -> execute)"
go test -count=1 -run 'TestSpecRoundTripExecute|TestSpecJSONRoundTrip' \
    . ./internal/experiment/

echo "== stepped-vs-monolith equivalence (session golden stage)"
# A session stepped tick-by-tick and in ragged chunks must be
# bit-identical to the monolithic Run — the contract that lets Run be a
# thin wrapper over Session without re-blessing any golden fixture. A
# cancelled run must stop on the tick boundary with nothing after it.
go test -count=1 \
    -run 'TestSessionStepToCompletionMatchesRun|TestSessionStepped|TestSessionHorizonBoundsSource|TestSessionCancellationStopsAtTickBoundary' .

echo "== go test -race (concurrency-bearing packages)"
go test -race ./internal/telemetry/ ./internal/cliobs/ ./internal/experiment/ \
    ./internal/sched/ ./internal/fault/ ./internal/topology/ \
    -run 'Test' -count=1
go test -race -short ./internal/cluster/ \
    -run 'TestStepPhysicsWorkersBitIdentical|TestStepAggregates|TestEnergyConservationRandomJobs|TestFleetStoreInvariants' -count=1
go test -race ./internal/thermal/ \
    -run 'TestFleetOracleChunkedStepping|TestFleetViewAliasesState|TestSnapshotRoundTripBitIdentical' -count=1
go test -race . -run 'TestRunMany|TestInstrumented|TestDefaultObservers|TestDefaultObservability|TestPhysicsWorkers|TestFaultRunBitIdentical|TestCorrelatedFault|TestCacheCorruptionQuarantine|TestStreamMemoryIsBounded|TestSession' -count=1
go test -race ./internal/workload/ -count=1

# scratch_copy DIR copies the working tree into DIR for a mutation
# self-check, leaving out VCS data, caches and build outputs.
scratch_copy() {
    mkdir -p "$1"
    tar cf - --exclude ./.git --exclude ./.vmtlint-cache --exclude ./.bench_build \
        --exclude ./results --exclude ./vmt.test . | (cd "$1" && tar xf -)
}

echo "== vmtdiff self-check (determinism, end to end)"
# Two identical runs must diff clean; a one-value mutation must be
# pinpointed at its exact tick with exit status 1.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/vmtsim" ./cmd/vmtsim
go build -o "$tmp/vmtdiff" ./cmd/vmtdiff
"$tmp/vmtsim" -servers 10 -baseline=false -fleet-log "$tmp/a.ndjson" >/dev/null
"$tmp/vmtsim" -servers 10 -baseline=false -fleet-log "$tmp/b.ndjson" >/dev/null
"$tmp/vmtdiff" "$tmp/a.ndjson" "$tmp/b.ndjson" >/dev/null
awk 'NR==100 { sub(/"cooling_load_w":[0-9.eE+-]+/, "\"cooling_load_w\":1.5") } { print }' \
    "$tmp/a.ndjson" > "$tmp/c.ndjson"
status=0
"$tmp/vmtdiff" "$tmp/a.ndjson" "$tmp/c.ndjson" > "$tmp/diff.out" || status=$?
if [ "$status" -ne 1 ]; then
    echo "vmtdiff on a mutated stream exited $status, want 1" >&2
    exit 1
fi
if ! grep -q 'tick 100.*cooling_load_w' "$tmp/diff.out"; then
    echo "vmtdiff did not pinpoint the mutated tick:" >&2
    cat "$tmp/diff.out" >&2
    exit 1
fi

echo "== vmtlint warm cache (answers every package from disk)"
# The strict run above populated .vmtlint-cache; an immediate re-run
# over the unchanged tree must answer everything from disk without
# type-checking a single package.
warmstats=$(go run ./cmd/vmtlint -strict -cache .vmtlint-cache -cachestats ./... 2>&1 >/dev/null)
case "$warmstats" in
*"0 misses, 0 packages type-checked"*) ;;
*)
    echo "warm vmtlint run re-type-checked packages: $warmstats" >&2
    exit 1
    ;;
esac

echo "== kernelparity self-check (one-token kernel drift is pinpointed)"
# Flip a single token in stepGroup's mirror lane body and demand
# kernelparity fail the build naming the exact divergent position —
# the guarantee the scalar/SoA bit-identity story rests on.
mutdir="$tmp/kernelmut"
scratch_copy "$mutdir"
awk '!done && sub(/toWax \* subSec/, "toRoom * subSec") { done = 1 } { print }' \
    internal/thermal/fleet.go > "$mutdir/internal/thermal/fleet.go"
mutline=$(grep -n 'toRoom \* subSec' "$mutdir/internal/thermal/fleet.go" | head -1 | cut -d: -f1)
go build -o "$tmp/vmtlint" ./cmd/vmtlint
status=0
(cd "$mutdir" && "$tmp/vmtlint" ./internal/thermal/) > "$tmp/kernel.out" 2>&1 || status=$?
if [ "$status" -ne 1 ]; then
    echo "vmtlint on a mutated kernel exited $status, want 1:" >&2
    cat "$tmp/kernel.out" >&2
    exit 1
fi
if ! grep -q "internal/thermal/fleet.go:$mutline: \[kernelparity\].*diverges from oracle" "$tmp/kernel.out"; then
    echo "kernelparity did not pinpoint the mutated line $mutline:" >&2
    cat "$tmp/kernel.out" >&2
    exit 1
fi

echo "== churn oracle self-check (a reversed tie-break is caught)"
# Reverse FirstWrap's rotated order in a scratch copy and demand the
# churn oracle fail: the index must not be able to drift from the
# scans' rotating tie-break unseen.
oraclemut="$tmp/oraclemut"
scratch_copy "$oraclemut"
awk '/^func \(q \*And\) FirstWrap/ { inside = 1 }
    inside && /q\.Next\(start, hi\); i >= 0/ { sub(/q\.Next\(start, hi\)/, "q.Next(lo, start)"); print; next }
    inside && /^\treturn q\.Next\(lo, start\)/ { sub(/q\.Next\(lo, start\)/, "q.Next(start, hi)"); inside = 0 }
    { print }' internal/bitset/bitset.go > "$oraclemut/internal/bitset/bitset.go"
if cmp -s internal/bitset/bitset.go "$oraclemut/internal/bitset/bitset.go"; then
    echo "churn oracle self-check: FirstWrap mutation did not apply" >&2
    exit 1
fi
status=0
(cd "$oraclemut" && go test -count=1 -run 'TestIndexMatchesScanUnderChurn' ./internal/core/) > "$tmp/oracle.out" 2>&1 || status=$?
if [ "$status" -eq 0 ] || ! grep -q 'index chose' "$tmp/oracle.out"; then
    echo "churn oracle passed with a reversed tie-break (exit $status):" >&2
    cat "$tmp/oracle.out" >&2
    exit 1
fi

echo "ok"
