#!/usr/bin/env python3
"""Paired, interleaved host-time A/B: the working tree against a base revision.

Usage: ab.py --base REV
       ab.py --self-test

Exports REV with ``git archive`` into .bench_build/ab/base/src (no
worktree; .git is untouched), builds it and the working tree side by
side, and runs N interleaved pairs, alternating which side goes first,
of

  * every BENCHMARK.json workload through each side's own
    perfbench/run.py, each side with its own CARGO_TARGET_DIR
    (.bench_build/ab/base for REV, perfbench's default .bench_build for
    the working tree);
  * the Release micro benchmarks that bench/perf_gates.json names (the
    ones perfbench does not cover), built in .bench_build/ab/base/release
    and in build-release.

The working tree builds where scripts/ci.sh's other steps build it, so
one CI run compiles it once per configuration.

It prints one row per metric in DESIGN.md §4a's format: each side's
median and quartiles, the median pair ratio (change / base), "change
worse in k/n" over the n pairs that did not tie, and the one-sided
sign-test p of that count.

A metric fails when the change is worse in so many of the pairs that
did not tie that the sign-test p is at most that of N-1 of N (9 of 10
at N = 10; ties count for neither side), and its median pair ratio is
also worse than its bound: BENCHMARK.json's bounds and directions for the perfbench
metrics, read in place, and bench/perf_gates.json's for the micro
benchmarks (all rates, higher is better). bench/perf_gates.json also
holds N, at least 10, and the perfbench pass length. The change fails
outright when one of its perfbench results is not correct or when it
fails more operations than the base. The gate is wall-clock only; it
needs no file under src/.

Exit status: 0 = pass, 1 = fail, 2 = usage, build or data error.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
AB_DIR = ROOT / ".bench_build" / "ab"
GATES = ROOT / "bench" / "perf_gates.json"

MICRO_BINARIES = ("micro_sim", "micro_gc", "micro_trace")
# One google-benchmark run per benchmark, per side, per pair.
MICRO_MIN_TIME_S = 0.3
# The gated counter of a micro benchmark: the first one it reports.
RATE_COUNTERS = ("bytecodes_per_sec", "items_per_second")
SEED = 1


class AbError(Exception):
    pass


def sign_test_p(k, n):
    """One-sided sign-test p: P(at least k of n fair coin flips)."""
    return sum(math.comb(n, i) for i in range(k, n + 1)) / 2 ** n


def alpha(n_pairs):
    """A metric can fail only when the change is worse in a share of
    pairs at least as unlikely, with no real difference, as all but one
    of the n_pairs pairs. It shrinks as n_pairs grows: 11/1024 at 10."""
    return sign_test_p(n_pairs - 1, n_pairs)


# Fewer pairs would let noise alone fail a metric more often than 11
# times in 1024.
MIN_PAIRS = 10


def judge(pairs, higher_is_better, bound, level):
    """Reduce one metric's (base, change) pairs; "failed" is its verdict."""
    worse = better = 0
    for b, c in pairs:
        if c != b:
            if (c < b) == higher_is_better:
                worse += 1
            else:
                better += 1
    n = worse + better
    ratio = statistics.median(c / b for b, c in pairs)
    shift = 1.0 - ratio if higher_is_better else ratio - 1.0
    p = sign_test_p(worse, n)
    return {"ratio": ratio, "worse": worse, "n": n, "p": p,
            "failed": p <= level and shift > bound}


def gate(judged, base_ops, change_ops):
    """Every reason the change fails; empty when it passes.

    judged maps a metric to judge()'s result; each ops argument is a
    (failed operations, every perfbench result correct) pair."""
    reasons = [name for name, j in judged.items() if j["failed"]]
    if not change_ops[1]:
        reasons.append("a perfbench result of the change is not correct")
    if change_ops[0] > base_ops[0]:
        reasons.append(f"the change failed {change_ops[0]} operations, "
                       f"the base {base_ops[0]}")
    return reasons


class Side:
    def __init__(self, name, src, target, release):
        self.name = name
        self.src = src
        # perfbench/run.py builds into $CARGO_TARGET_DIR/perfbench.
        self.target = target
        self.release = release
        self.failed = 0
        self.correct = True


def run(cmd, **kwargs):
    proc = subprocess.run([str(c) for c in cmd], capture_output=True,
                          text=True, **kwargs)
    if proc.returncode != 0:
        raise AbError(f"{' '.join(map(str, cmd))} exited "
                      f"{proc.returncode}:\n{proc.stderr.strip()[-2000:]}")
    return proc.stdout


def export_base(rev):
    """The base source tree, re-exported only when REV moved.

    A new REV starts from an empty directory, builds included: tar
    stamps every file with REV's commit time, so an older REV's sources
    would look older than the objects built from the last one, and make
    would keep those."""
    sha = run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
              cwd=ROOT).strip()
    base = AB_DIR / "base"
    src = base / "src"
    stamp = base / "rev"
    if not (stamp.is_file() and stamp.read_text() == sha and src.is_dir()):
        shutil.rmtree(base, ignore_errors=True)
        src.mkdir(parents=True)
        archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT,
                                   stdout=subprocess.PIPE)
        untar = subprocess.run(["tar", "-x", "-C", str(src)],
                               stdin=archive.stdout)
        archive.stdout.close()
        if archive.wait() != 0 or untar.returncode != 0:
            raise AbError(f"could not export {rev} ({sha})")
        stamp.write_text(sha)
    return sha


def build_micro(side):
    if not (side.release / "CMakeCache.txt").is_file():
        run(["cmake", "-S", side.src, "-B", side.release,
             "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    run(["cmake", "--build", side.release, "-j", jobs, "--target",
         *MICRO_BINARIES])


def run_perfbench(side, command, workload, seconds):
    env = dict(os.environ, CARGO_TARGET_DIR=str(side.target))
    out = run([*command, "--workload", workload, "--seed", SEED,
               "--seconds", seconds, "--trace", "0"],
              cwd=side.src, env=env)
    result = json.loads(out.strip().splitlines()[-1])
    side.failed += result["failed"]
    side.correct &= bool(result["correct"])
    return {f"{workload} {name}": m["value"]
            for name, m in result["metrics"].items()}


def run_micro(side, binary, names):
    out = run([side.release / "bench" / binary,
               "--benchmark_format=json",
               f"--benchmark_min_time={MICRO_MIN_TIME_S}",
               f"--benchmark_filter=^({'|'.join(names)})$"])
    values = {}
    for bench in json.loads(out)["benchmarks"]:
        if bench.get("error_occurred"):
            continue
        counter = next(c for c in RATE_COUNTERS if c in bench)
        values[bench["name"]] = bench[counter]
    return values


def quartiles(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return f"{q2:.4g} [{q1:.4g}, {q3:.4g}]"


def ab(rev):
    start = time.monotonic()
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    gates = json.loads(GATES.read_text())
    pairs = gates["pairs"]
    if not isinstance(pairs, int) or pairs < MIN_PAIRS:
        raise AbError(f"{GATES}: pairs must be a whole number of at "
                      f"least {MIN_PAIRS}, not {pairs!r}")
    level = alpha(pairs)
    micro = gates["micro"]
    # metric -> (higher is better, bound)
    rules = {}
    for w in benchmark["workloads"]:
        for m in benchmark["end_to_end"]:
            rules[f"{w['name']} {m['name']}"] = (m["better"] == "higher",
                                                 m["bound"])
    for name, bound in micro.items():
        rules[name] = (True, bound)

    sha = export_base(rev)
    base = Side("base", AB_DIR / "base" / "src", AB_DIR / "base",
                AB_DIR / "base" / "release")
    change = Side("change", ROOT, ROOT / ".bench_build",
                  ROOT / "build-release")
    for side in (base, change):
        print(f"ab: building the {side.name} side", file=sys.stderr)
        build_micro(side)

    samples = {name: {"base": [], "change": []} for name in rules}
    for i in range(pairs):
        print(f"ab: pair {i + 1}/{pairs}", file=sys.stderr)
        order = (base, change) if i % 2 == 0 else (change, base)
        values = {"base": {}, "change": {}}
        for w in benchmark["workloads"]:
            for side in order:
                values[side.name].update(run_perfbench(
                    side, benchmark["command"], w["name"],
                    gates["perfbench_seconds"]))
        for binary in MICRO_BINARIES:
            for side in order:
                values[side.name].update(run_micro(side, binary, micro))
        for side in (base, change):
            # A micro benchmark that errored or is gone fails one
            # operation on its side, and its pair is dropped.
            side.failed += sum(1 for name in micro
                               if name not in values[side.name])
        for name in rules:
            if all(name in v for v in values.values()):
                for side_name, v in values.items():
                    samples[name][side_name].append(v[name])

    print(f"\n{pairs} interleaved pairs, base {rev} ({sha[:12]}) vs the "
          f"working tree; ratio = change / base; a metric fails when "
          f"p <= {level:.4f} ({pairs - 1} of {pairs}) and its median "
          f"ratio is worse than its bound\n")
    print("| metric | bound | base median [Q1, Q3] | change median "
          "[Q1, Q3] | median ratio | change worse | p | verdict |")
    print("|---|---|---|---|---|---|---|---|")
    judged = {}
    for name, (higher, bound) in rules.items():
        s = samples[name]
        if len(s["base"]) < 2:
            print(f"| {name} | {bound} | fewer than 2 pairs | | | | | "
                  f"not compared |")
            continue
        j = judged[name] = judge(list(zip(s["base"], s["change"])),
                                 higher, bound, level)
        print(f"| {name} | {bound} | {quartiles(s['base'])} | "
              f"{quartiles(s['change'])} | {j['ratio']:.3f} | "
              f"{j['worse']}/{j['n']} | {j['p']:.3g} | "
              f"{'FAIL' if j['failed'] else 'ok'} |")
    print(f"\nfailed operations: base {base.failed}, change "
          f"{change.failed}; wall time {time.monotonic() - start:.0f} s")
    reasons = gate(judged, (base.failed, base.correct),
                   (change.failed, change.correct))
    if reasons:
        print(f"ab: FAIL: {'; '.join(reasons)}", file=sys.stderr)
        return 1
    print(f"ab: OK: {len(judged)} metrics, none worse in {pairs - 1} of "
          f"{pairs} pairs beyond its bound")
    return 0


def self_test():
    """Synthetic pairs; exits nonzero on the first failed check."""
    checks = []

    def check(name, cond):
        checks.append((name, cond))
        print(f"  {'ok' if cond else 'FAIL'}: {name}")

    def pairs(worse, tied, better, ratio):
        """Rates (higher is better): `worse` pairs at change/base =
        ratio, then ties, then pairs the change wins by 1 %."""
        return ([(100.0, 100.0 * ratio)] * worse +
                [(100.0, 100.0)] * tied + [(100.0, 101.0)] * better)

    level = alpha(10)

    def fails(worse, tied, better, ratio, bound=0.10):
        j = judge(pairs(worse, tied, better, ratio), True, bound, level)
        return bool(gate({"m": j}, (0, True), (0, True)))

    check("10 pairs: p(9 of 10) = 11/1024", level == 11 / 1024)
    check("20 pairs: 18 worse passes, 19 worse fails",
          not judge(pairs(18, 0, 2, 0.8), True, 0.10, alpha(20))["failed"]
          and judge(pairs(19, 0, 1, 0.8), True, 0.10, alpha(20))["failed"])
    check("9/10 worse beyond the bound fails", fails(9, 0, 1, 0.8))
    check("8/10 worse beyond the bound passes",
          not fails(8, 0, 2, 0.8))
    check("10/10 worse within the bound passes",
          not fails(10, 0, 0, 0.95))
    check("10/10 worse beyond the bound fails", fails(10, 0, 0, 0.8))
    check("ties are not losses: 8 worse, 1 tie, 1 better passes",
          not fails(8, 1, 1, 0.8))
    check("ties are not wins: 8 worse, 2 ties fails",
          fails(8, 2, 0, 0.8))
    j = judge(pairs(8, 1, 1, 0.8), True, 0.10, level)
    check("ties count for neither side: 8 worse of 9",
          (j["worse"], j["n"]) == (8, 9))
    check("lower-is-better metrics are worse when they rise",
          judge([(1.0, 1.3)] * 10, False, 0.25, level)["failed"]
          and not judge([(1.0, 0.7)] * 10, False, 0.25, level)["failed"])
    ok = {"m": judge(pairs(5, 0, 5, 0.99), True, 0.10, level)}
    check("clean pairs pass", not gate(ok, (0, True), (0, True)))
    check("more failed operations on the change fails",
          bool(gate(ok, (0, True), (1, True))))
    check("equal failed operations pass",
          not gate(ok, (1, True), (1, True)))
    check("an incorrect change result fails",
          bool(gate(ok, (0, True), (0, False))))

    failed = [name for name, cond in checks if not cond]
    if failed:
        print(f"self-test FAILED: {failed}", file=sys.stderr)
        return 1
    print(f"self-test OK ({len(checks)} checks)")
    return 0


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", help="git revision to compare against")
    ap.add_argument("--self-test", action="store_true",
                    help="run the built-in checks and exit")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if not args.base:
        ap.error("--base REV is required")
    try:
        return ab(args.base)
    except (AbError, OSError, ValueError, KeyError) as e:
        print(f"ab: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
