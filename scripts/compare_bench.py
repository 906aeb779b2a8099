#!/usr/bin/env python3
"""Compare a fresh micro-benchmark run against a committed baseline.

Usage: compare_bench.py BASELINE.json CURRENT.json... [--max-regress FRAC]

Both files are google-benchmark ``--benchmark_format=json`` output
(bench/micro_sim or bench/micro_gc). Several CURRENT runs may be given;
they are merged best-of-N per benchmark (the run with the highest gated
counter wins), which is how ci.sh takes best-of-3 on a loaded host.

Beyond the regression gates below, two requirement flags support the
tentpole perf targets (repeatable, both of the form NAME.counter=VALUE):

  --min-speedup  current/baseline of that counter must be >= VALUE
  --min-rate     the current counter itself must be >= VALUE
  --no-default-gates  apply only the requirement flags (used with a
                      benchmark_filter'd current run that does not
                      contain every default gate)

The gated metrics are the throughput counters of the hot-path
benchmarks:

  * BM_EndToEndExperiment   bytecodes_per_sec (the ROADMAP perf
    trajectory: host-side simulation throughput of a full experiment)
  * BM_EndToEndGcHeavy      bytecodes_per_sec (GC-dominated pipeline:
    pmd under SemiSpace at the tightest paper heap, the configuration
    the batched GC fast paths target)
  * BM_EndToEndMutatorHeavy bytecodes_per_sec (mutator-dominated
    pipeline: compress at a generous heap, the configuration the
    execute-batching interpreter fast path targets)
  * BM_InterpreterDispatch  bytecodes_per_sec (interpreted-tier
    dispatch + cost-table hot path in isolation)
  * BM_CacheAccess/{14,18,24}  items_per_second (the SoA cache model)
  * BM_GcMark / BM_GcEvacuate / BM_GcSweep  items_per_second (the
    three GC phase drains in isolation; see bench/micro_gc.cpp)
  * BM_TraceCapture         items_per_second (per-sample append cost
    of the trace spool, block writes included; see
    bench/micro_trace.cpp)
  * BM_EndToEndExperimentSpooled  bytecodes_per_sec (the end-to-end
    pipeline with power + perf spooling attached — capture must stay
    free at the experiment level)
  * BM_EndToEndMultiTenant  bytecodes_per_sec (two co-tenant VMs
    interleaved at quantum granularity serving Poisson traffic; the
    slice scheduler + per-tenant attribution hot path — gated against
    bench/BENCH_cotenancy.baseline.json)

A gate missing from the *baseline* is skipped with a note — older
committed baselines predate the newer benchmarks — but a gate present
in the baseline and missing from the current run is an error. The
remaining benchmarks are reported for context only, since
nanosecond-scale micro-benchmarks are too noisy for a hard threshold.

Exits non-zero when any gated metric regresses more than
``--max-regress`` (default 10 %) below the baseline.
"""

import argparse
import json
import sys

GATES = [
    ("BM_EndToEndExperiment", "bytecodes_per_sec"),
    ("BM_EndToEndCallHeavy", "bytecodes_per_sec"),
    ("BM_EndToEndGcHeavy", "bytecodes_per_sec"),
    ("BM_EndToEndMutatorHeavy", "bytecodes_per_sec"),
    ("BM_InterpreterDispatch", "bytecodes_per_sec"),
    ("BM_CacheAccess/14", "items_per_second"),
    ("BM_CacheAccess/18", "items_per_second"),
    ("BM_CacheAccess/24", "items_per_second"),
    ("BM_GcMark", "items_per_second"),
    ("BM_GcEvacuate", "items_per_second"),
    ("BM_GcSweep", "items_per_second"),
    ("BM_TraceCapture", "items_per_second"),
    ("BM_EndToEndExperimentSpooled", "bytecodes_per_sec"),
    ("BM_EndToEndMultiTenant", "bytecodes_per_sec"),
]


"""Throughput counters a benchmark may carry, used to rank best-of-N
runs of one benchmark (higher is better; real_time breaks ties for
benchmarks with no rate counter)."""
RATE_COUNTERS = ("bytecodes_per_sec", "items_per_second")


def load_rates(path):
    with open(path) as f:
        data = json.load(f)
    rates = {}
    for bench in data.get("benchmarks", []):
        rates[bench["name"]] = bench
    return rates


def merge_best(runs):
    """Best-of-N merge: per benchmark, keep the fastest entry."""

    def score(entry):
        for counter in RATE_COUNTERS:
            if counter in entry:
                return entry[counter]
        return -entry.get("real_time", 0.0)

    merged = {}
    for run in runs:
        for name, entry in run.items():
            if name not in merged or score(entry) > score(merged[name]):
                merged[name] = entry
    return merged


def parse_requirement(spec):
    """Parse a NAME.counter=VALUE requirement flag."""
    lhs, _, value = spec.rpartition("=")
    bench, _, counter = lhs.rpartition(".")
    if not bench or not counter or not value:
        raise ValueError(f"bad requirement spec: {spec!r} "
                         f"(want NAME.counter=VALUE)")
    return bench, counter, float(value)


def gate(base, cur, max_regress, out=sys.stdout, min_speedup=(),
         min_rate=(), default_gates=True):
    """Apply the gates to two loaded rate maps; returns the exit code."""
    floor = 1.0 - max_regress
    gated = 0
    failed = []
    print(file=out)
    for bench, counter in (GATES if default_gates else []):
        if bench not in base or counter not in base[bench]:
            print(f"  {bench}.{counter}: not in baseline, skipped",
                  file=out)
            continue
        if bench not in cur or counter not in cur[bench]:
            print(f"error: gated metric {bench}.{counter} present in "
                  f"the baseline but missing from the current run",
                  file=sys.stderr)
            return 2
        base_rate = base[bench][counter]
        cur_rate = cur[bench][counter]
        ratio = cur_rate / base_rate
        verdict = "ok" if ratio >= floor else "REGRESSED"
        print(f"  {bench}.{counter}: baseline {base_rate / 1e6:.2f}M, "
              f"current {cur_rate / 1e6:.2f}M ({ratio:.2f}x) {verdict}",
              file=out)
        gated += 1
        if ratio < floor:
            failed.append(f"{bench}.{counter}")

    # Requirement gates: hard floors, not regression tolerances. A
    # metric missing from either side is an error — these name specific
    # targets, so a silently skipped one would be a green lie.
    for bench, counter, need in min_speedup:
        if bench not in base or counter not in base[bench] or \
                bench not in cur or counter not in cur[bench]:
            print(f"error: --min-speedup metric {bench}.{counter} "
                  f"missing from the baseline or the current run",
                  file=sys.stderr)
            return 2
        ratio = cur[bench][counter] / base[bench][counter]
        verdict = "ok" if ratio >= need else "BELOW TARGET"
        print(f"  {bench}.{counter}: {ratio:.3f}x over baseline "
              f"(target >= {need}x) {verdict}", file=out)
        gated += 1
        if ratio < need:
            failed.append(f"{bench}.{counter} speedup {ratio:.3f} "
                          f"< {need}")
    for bench, counter, need in min_rate:
        if bench not in cur or counter not in cur[bench]:
            print(f"error: --min-rate metric {bench}.{counter} missing "
                  f"from the current run", file=sys.stderr)
            return 2
        rate = cur[bench][counter]
        verdict = "ok" if rate >= need else "BELOW TARGET"
        print(f"  {bench}.{counter}: {rate / 1e6:.2f}M "
              f"(target >= {need / 1e6:.2f}M) {verdict}", file=out)
        gated += 1
        if rate < need:
            failed.append(f"{bench}.{counter} rate {rate:.3g} < {need:.3g}")

    if gated == 0:
        print("error: no gated metric present in both runs",
              file=sys.stderr)
        return 2
    if failed:
        print(f"FAIL: {', '.join(failed)}", file=sys.stderr)
        return 1
    print(f"OK: all {gated} gated metrics within budget", file=out)
    return 0


def self_test():
    """Unit checks on the gating logic; exits nonzero on failure."""
    import contextlib
    import io

    def rates(value):
        return {name: {counter: value} for name, counter in GATES}

    def quiet_gate(base, cur, max_regress, **kw):
        sink = io.StringIO()
        with contextlib.redirect_stderr(sink):
            return gate(base, cur, max_regress, out=sink, **kw)

    speed = [("BM_EndToEndCallHeavy", "bytecodes_per_sec", 1.3)]
    floor50 = [("BM_EndToEndExperiment", "bytecodes_per_sec", 50e6)]
    checks = [
        ("equal rates pass", quiet_gate(rates(1e6), rates(1e6),
                                        0.10) == 0),
        ("5% regression passes a 10% gate",
         quiet_gate(rates(1e6), rates(0.95e6), 0.10) == 0),
        ("15% regression fails a 10% gate",
         quiet_gate(rates(1e6), rates(0.85e6), 0.10) == 1),
        ("improvement passes", quiet_gate(rates(1e6), rates(2e6),
                                          0.10) == 0),
        ("missing current metric is an error",
         quiet_gate(rates(1e6), {}, 0.10) == 2),
        ("empty baseline is an error", quiet_gate({}, rates(1e6),
                                                  0.10) == 2),
        ("1.4x speedup passes a 1.3x requirement",
         quiet_gate(rates(1e6), rates(1.4e6), 0.10, min_speedup=speed,
                    default_gates=False) == 0),
        ("1.2x speedup fails a 1.3x requirement",
         quiet_gate(rates(1e6), rates(1.2e6), 0.10, min_speedup=speed,
                    default_gates=False) == 1),
        ("rate above an absolute floor passes",
         quiet_gate(rates(1e6), rates(55e6), 0.10, min_rate=floor50,
                    default_gates=False) == 0),
        ("rate below an absolute floor fails",
         quiet_gate(rates(1e6), rates(45e6), 0.10, min_rate=floor50,
                    default_gates=False) == 1),
        ("requirement metric missing from current is an error",
         quiet_gate(rates(1e6), {}, 0.10, min_rate=floor50,
                    default_gates=False) == 2),
        ("best-of-N merge keeps the fastest run",
         merge_best([rates(1e6), rates(3e6),
                     rates(2e6)])["BM_EndToEndExperiment"]
         ["bytecodes_per_sec"] == 3e6),
        ("requirement spec parses",
         parse_requirement("BM_EndToEndCallHeavy.bytecodes_per_sec=1.3")
         == ("BM_EndToEndCallHeavy", "bytecodes_per_sec", 1.3)),
    ]
    failed = [name for name, ok in checks if not ok]
    for name, ok in checks:
        print(f"  {'ok' if ok else 'FAIL'}: {name}")
    if failed:
        print(f"self-test FAILED: {failed}", file=sys.stderr)
        return 1
    print(f"self-test OK ({len(checks)} checks)")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline", nargs="?")
    ap.add_argument("current", nargs="*")
    ap.add_argument("--max-regress", type=float, default=0.10,
                    help="maximum allowed fractional regression "
                         "of each gated metric (default 0.10)")
    ap.add_argument("--min-speedup", action="append", default=[],
                    metavar="NAME.counter=RATIO",
                    help="require current/baseline of that counter to "
                         "be at least RATIO (repeatable)")
    ap.add_argument("--min-rate", action="append", default=[],
                    metavar="NAME.counter=RATE",
                    help="require the current counter to be at least "
                         "RATE (repeatable)")
    ap.add_argument("--no-default-gates", action="store_true",
                    help="apply only the --min-speedup/--min-rate "
                         "requirements, not the regression gate list")
    ap.add_argument("--self-test", action="store_true",
                    help="run the built-in unit checks and exit")
    args = ap.parse_args()

    if args.self_test:
        return self_test()
    if not args.baseline or not args.current:
        ap.error("baseline and current runs are required")

    base = load_rates(args.baseline)
    cur = merge_best([load_rates(p) for p in args.current])
    if len(args.current) > 1:
        print(f"  (best-of-{len(args.current)} merge of "
              f"{', '.join(args.current)})")

    # Context table: every benchmark present in both runs.
    for name in sorted(set(base) & set(cur)):
        b, c = base[name], cur[name]
        if "real_time" in b and "real_time" in c and b["real_time"] > 0:
            ratio = b["real_time"] / c["real_time"]
            print(f"  {name:<32} {b['real_time']:>12.2f} -> "
                  f"{c['real_time']:>12.2f} {b.get('time_unit', 'ns')}"
                  f"  ({ratio:.2f}x)")

    return gate(base, cur, args.max_regress,
                min_speedup=[parse_requirement(s)
                             for s in args.min_speedup],
                min_rate=[parse_requirement(s) for s in args.min_rate],
                default_gates=not args.no_default_gates)


if __name__ == "__main__":
    sys.exit(main())
