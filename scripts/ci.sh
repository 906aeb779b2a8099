#!/bin/sh
# Tier-1 gate: configure, build, and run the full test suite (the
# per-op interpreter and GC oracles run inside it, in-process, as the
# reference side of tests/test_interp_diff.cc and tests/test_gc_diff.cc);
# then the repository benchmark's own tests (perfbench/); then the CLI
# smokes, among them the sweep exit codes and the trace smoke (round
# trip and torn-tail recovery); then the same suite once more in a
# Debug ASan+UBSan build; then the perf gate: scripts/ab.py builds the
# working tree and a base side by side (the commit the tree sits on
# when it has uncommitted changes, that commit's parent when it has
# none) and runs interleaved pairs of every perfbench workload and the
# Release micro benchmarks on both, failing a metric the change makes
# worse in 9 of 10 pairs by more than its bound (BENCHMARK.json,
# bench/perf_gates.json; DESIGN.md §4b); and finally the statistical
# energy gate: a Release ensemble run over the pinned seed list,
# compared against bench/ENSEMBLE_energy.baseline.json for
# statistically significant energy/EDP regressions (see
# scripts/compare_ensemble.py). Mirrors what CI runs; keep it green
# before pushing.
set -eu

cd "$(dirname "$0")/.."

# --- gate-tooling self-tests: the A/B and comparison scripts check
# --- their own logic. The ensemble gate's also runs both verdicts on
# --- the committed baseline without running a single experiment: a
# --- jittered copy (a healthy re-run) must pass, and a +5 % energy
# --- copy must fail.
if command -v python3 > /dev/null 2>&1; then
    python3 scripts/ab.py --self-test
    python3 scripts/compare_ensemble.py --self-test
fi

# --- correctness gate (includes the differential fuzzers and the
# --- golden-run regressions; see tests/test_cache_diff.cc and
# --- tests/test_golden_runs.cc)
cmake -B build -S .
cmake --build build -j
ctest --test-dir build --output-on-failure -j "$(nproc)"

# --- the repository benchmark's own tests (perfbench/README.md): its
# --- traced and detached pipelines must reproduce runExperiment bit
# --- for bit, and run.py must emit every metric BENCHMARK.json names.
cmake -S perfbench -B .bench_build/perfbench
cmake --build .bench_build/perfbench -j --target perfbench_tests
.bench_build/perfbench/perfbench_tests
python3 perfbench/test_run.py

# --- kill-and-resume smoke: SIGKILL javelin-sweep mid-run via the
# --- JAVELIN_JOB_CRASH_AFTER hook, resume from the journal, and
# --- require (a) the resumed report byte-identical to an
# --- uninterrupted run and (b) the resume restored work and executed
# --- strictly fewer shards than the sweep holds — proof the
# --- checkpoint carried results across a hard crash.
SWEEP=build/src/tools/javelin-sweep
SMOKE=examples/scenarios/smoke.scenario.json
SMOKE_DIR=build/smoke
rm -rf "$SMOKE_DIR"
mkdir -p "$SMOKE_DIR"
"$SWEEP" "$SMOKE" --jobs 2 --out "$SMOKE_DIR/clean.json" \
    2> /dev/null
if JAVELIN_JOB_CRASH_AFTER=3 "$SWEEP" "$SMOKE" --jobs 2 \
    --checkpoint "$SMOKE_DIR/journal.jsonl" \
    --out "$SMOKE_DIR/crashed.json" 2> /dev/null; then
    echo "ci.sh: crash injection did not kill javelin-sweep" >&2
    exit 1
fi
"$SWEEP" "$SMOKE" --jobs 2 --checkpoint "$SMOKE_DIR/journal.jsonl" \
    --resume --out "$SMOKE_DIR/resumed.json" \
    2> "$SMOKE_DIR/resume.log"
cmp "$SMOKE_DIR/clean.json" "$SMOKE_DIR/resumed.json"
stats=$(grep 'checkpoint: restored=' "$SMOKE_DIR/resume.log" | tail -n 1)
restored=${stats#*restored=}; restored=${restored%% *}
executed=${stats#*executed=}; executed=${executed%% *}
total=${stats#*total=}
if [ "$restored" -lt 1 ] || [ "$executed" -ge "$total" ] ||
    [ $((restored + executed)) -ne "$total" ]; then
    echo "ci.sh: resume accounting wrong: $stats" >&2
    exit 1
fi
echo "kill-and-resume smoke: report byte-identical," \
    "restored=$restored executed=$executed total=$total"

# --- co-tenancy smoke (DESIGN.md §11): the builtin multi-tenant sweep
# --- must produce byte-identical reports across worker counts (the
# --- interleaving is a function of simulated state only, so the
# --- host-side job schedule must not leak into a single number) and
# --- across a SIGKILL crash + journal resume.
COT_DIR=build/cotenancy-smoke
rm -rf "$COT_DIR"
mkdir -p "$COT_DIR"
"$SWEEP" --builtin cotenancy-interference --jobs 2 \
    --out "$COT_DIR/j2.json" 2> /dev/null
"$SWEEP" --builtin cotenancy-interference --jobs 1 \
    --out "$COT_DIR/j1.json" 2> /dev/null
cmp "$COT_DIR/j1.json" "$COT_DIR/j2.json"
if JAVELIN_JOB_CRASH_AFTER=4 "$SWEEP" --builtin cotenancy-interference \
    --jobs 2 --checkpoint "$COT_DIR/journal.jsonl" \
    --out "$COT_DIR/crashed.json" 2> /dev/null; then
    echo "ci.sh: crash injection did not kill the co-tenancy sweep" >&2
    exit 1
fi
"$SWEEP" --builtin cotenancy-interference --jobs 2 \
    --checkpoint "$COT_DIR/journal.jsonl" --resume \
    --out "$COT_DIR/resumed.json" 2> /dev/null
cmp "$COT_DIR/j2.json" "$COT_DIR/resumed.json"
echo "co-tenancy smoke: jobs-1, jobs-2 and crash-resumed reports" \
    "byte-identical"

expect_exit() {
    want=$1
    shift
    "$@" > /dev/null 2>&1 && rc=0 || rc=$?
    if [ "$rc" -ne "$want" ]; then
        echo "ci.sh: expected exit $want, got $rc: $*" >&2
        exit 1
    fi
}

# --- sweep exit codes (DESIGN.md §4a): a simulated out-of-memory run
# --- is a result, so a sweep whose every shard runs out of memory
# --- exits 0; the same sweep with co-tenants exits 1, because a
# --- tenant that dies fails its shard ("tenant failed:
# --- OutOfMemoryError").
OOM_DIR=build/oom-smoke
rm -rf "$OOM_DIR"
mkdir -p "$OOM_DIR"
oom_scenario() {
    printf '{"schema": "javelin-scenario-v1", "name": "oom", "base":
  {"dataset": "Small", "heap_scale": 0.001%s},
  "sweep": {"benchmark": ["_202_jess", "_209_db"]}}\n' "$1"
}
oom_scenario '' > "$OOM_DIR/oom.json"
oom_scenario ', "tenants": 2, "requests_per_tenant": 4' \
    > "$OOM_DIR/tenants.json"
expect_exit 0 "$SWEEP" "$OOM_DIR/oom.json"
expect_exit 1 "$SWEEP" "$OOM_DIR/tenants.json"
echo "sweep exit codes: simulated out-of-memory shards exit 0," \
    "a co-tenant failure exits 1"

# --- trace smoke: record a synthetic power trace in 64 KiB blocks
# --- alongside an in-memory CSV oracle and require the binary file to
# --- decode byte-identically; then cut a copy halfway through its
# --- tenth block, as a write that is killed or hits a full disk
# --- leaves it, and require recovery to yield an exact, non-trivial
# --- line-prefix of the oracle (torn-tail semantics of
# --- javelin-trace-v1; DESIGN.md §10).
TRACE=build/src/tools/javelin-trace
TRACE_DIR=build/trace-smoke
rm -rf "$TRACE_DIR"
mkdir -p "$TRACE_DIR"
"$TRACE" record --samples 50000 --buffer-bytes 65536 \
    --out "$TRACE_DIR/clean.jtrc" --csv-oracle "$TRACE_DIR/oracle.csv" \
    > /dev/null
"$TRACE" export-csv "$TRACE_DIR/clean.jtrc" "$TRACE_DIR/clean.csv"
cmp "$TRACE_DIR/oracle.csv" "$TRACE_DIR/clean.csv"
# The index prints six lines, then one line per block, offset first.
torn_bytes=$("$TRACE" index "$TRACE_DIR/clean.jtrc" |
    awk -F, 'NR == 16 { a = $1 } NR == 17 { print int((a + $1) / 2) }')
head -c "$torn_bytes" "$TRACE_DIR/clean.jtrc" > "$TRACE_DIR/torn.jtrc"
"$TRACE" export-csv "$TRACE_DIR/torn.jtrc" "$TRACE_DIR/torn.csv"
head -n "$(wc -l < "$TRACE_DIR/torn.csv")" "$TRACE_DIR/oracle.csv" \
    | cmp - "$TRACE_DIR/torn.csv"
torn_lines=$(wc -l < "$TRACE_DIR/torn.csv")
oracle_lines=$(wc -l < "$TRACE_DIR/oracle.csv")
if [ "$torn_lines" -le 1 ] || [ "$torn_lines" -ge "$oracle_lines" ]; then
    echo "ci.sh: torn recovery line count wrong:" \
        "$torn_lines of $oracle_lines" >&2
    exit 1
fi
# A damaged header is refused with the reader's error and exit 1.
printf 'X' | dd of="$TRACE_DIR/clean.jtrc" bs=1 seek=1 conv=notrunc \
    2> /dev/null
if "$TRACE" cat "$TRACE_DIR/clean.jtrc" 2> "$TRACE_DIR/corrupt.err" \
    > /dev/null || [ $? -ne 1 ] ||
    ! grep -q '^javelin-trace: .*(bad magic)$' "$TRACE_DIR/corrupt.err"; then
    echo "ci.sh: a corrupt trace must exit 1 with the reader's error" >&2
    exit 1
fi
echo "trace smoke: clean round trip byte-identical, torn tail" \
    "recovered $torn_lines of $oracle_lines oracle lines, corrupt" \
    "header refused"

# --- argument smoke: a malformed count must be a usage error (exit 2),
# --- never silently parsed into some other number ("1e6" as 1, "-1" as
# --- 2^32-1, the shard count "-4" as 2^64-4, the seed "-1" as 2^64-1,
# --- the thermal horizon "-5" as a huge tick count, "abc" and "inf" as
# --- a study of zero runs, the heap "abc" as 0 MB and "-5" as
# --- 4294967291 MB) or thrown out of main ("abc"); so must an unknown
# --- benchmark or collector name. Each exits before any experiment.
expect_usage_error() {
    expect_exit 2 "$@"
}
expect_usage_error "$TRACE" record --samples 1e6 \
    --out "$TRACE_DIR/bad.jtrc"
expect_usage_error "$SWEEP" "$SMOKE" --jobs -1
expect_usage_error "$SWEEP" "$SMOKE" --shard 1/-4
expect_usage_error build/bench/ensemble_report --seeds abc
expect_usage_error build/bench/ensemble_report --seeds -1
expect_usage_error build/examples/thermal_study _222_mpegaudio abc
expect_usage_error build/examples/thermal_study _222_mpegaudio -5
expect_usage_error build/examples/thermal_study _222_mpegaudio inf
expect_usage_error build/examples/quickstart _202_jess abc
expect_usage_error build/examples/quickstart _202_jess -5
expect_usage_error build/examples/power_trace _202_jess abc "$TRACE_DIR"
expect_usage_error build/examples/power_trace _202_jess -5 "$TRACE_DIR"
for example in quickstart gc_comparison embedded_profile power_trace \
    thermal_study; do
    expect_usage_error "build/examples/$example" nope
done
expect_usage_error build/examples/quickstart _202_jess 32 Nope
echo "argument smoke: malformed counts and unknown names rejected" \
    "with exit 2"

# --- sanitizer gate (skippable for quick iteration): the trace
# --- executor and the SoA cache hot paths lean on raw pointers into
# --- pre-sized register pools and way arrays, exactly where ASan and
# --- UBSan earn their keep.
if [ "${JAVELIN_SKIP_ASAN:-0}" = "1" ]; then
    echo "ci.sh: JAVELIN_SKIP_ASAN=1, skipping the sanitizer gate"
else
    cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=Debug \
        -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all"
    cmake --build build-asan -j
    ctest --test-dir build-asan --output-on-failure -j "$(nproc)"
fi

# --- perf gate (skippable for quick correctness-only runs)
if [ "${JAVELIN_SKIP_BENCH:-0}" = "1" ]; then
    echo "ci.sh: JAVELIN_SKIP_BENCH=1, skipping the perf gate"
    exit 0
fi

# The uncommitted change against the commit it sits on; a clean tree
# would run HEAD against itself, so it gates HEAD against its parent.
if git diff --quiet HEAD --; then
    base=HEAD~1
else
    base=HEAD
fi
python3 scripts/ab.py --base "$base"

# --- statistical energy gate: the pinned-seed ensemble must show no
# --- statistically significant energy/EDP regression against the
# --- committed baseline (Holm-corrected permutation test, not a fixed
# --- threshold). Regenerate the baseline only after intentional model
# --- changes: build-release/bench/ensemble_report --out
# --- bench/ENSEMBLE_energy.baseline.json. scripts/ab.py has configured
# --- build-release, the working tree's Release build.
cmake --build build-release -j --target ensemble_report
./build-release/bench/ensemble_report --out ENSEMBLE_current.json
if command -v python3 > /dev/null 2>&1; then
    python3 scripts/compare_ensemble.py \
        bench/ENSEMBLE_energy.baseline.json ENSEMBLE_current.json
else
    echo "ci.sh: python3 not found, skipping the ensemble gate" >&2
fi
