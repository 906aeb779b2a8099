#!/usr/bin/env python3
"""Gate energy/EDP on statistically significant ensemble regressions.

Usage: compare_ensemble.py BASELINE.json CURRENT.json [options]
       compare_ensemble.py --self-test

Both files are ``javelin-ensemble-v1`` reports written by
``bench/ensemble_report`` (see src/harness/ensemble.hh): per
(benchmark x collector x heap) cell, the per-seed samples and bootstrap
CI of every metric. Instead of a fixed percentage threshold, each gated
metric is tested for a *statistically significant* shift in the bad
direction:

  * the primary test is a two-sided permutation test on the difference
    of means — exact (all C(n, na) relabelings) when the pooled sample
    is small enough, seeded Monte-Carlo otherwise;
  * a Mann-Whitney rank test (normal approximation, midranks,
    tie-corrected) is reported alongside for cross-checking;
  * Holm-Bonferroni controls the family-wise error rate across all
    (cell, metric) comparisons, so a wide matrix does not inflate the
    false-alarm rate;
  * ``--min-effect`` additionally requires the relative mean shift to
    exceed a practical floor (default 0.2 %), so a microscopically
    small but formally significant shift does not fail the build.

Gated metrics default to total_joules and edp_js, where "worse" means
"larger"; other metrics are reported for context. The seed lists of the
two reports must match — a different ensemble is a different
experiment, not a comparison. A cell with fewer than two samples on
either side, or more failed members than its baseline cell, fails.

Exit status: 0 = no significant regression, 1 = significant regression
or lost members, 2 = usage or data error.
"""

import argparse
import copy
import itertools
import json
import math
import os
import random
import sys

SCHEMA = "javelin-ensemble-v1"

# metric -> True when larger values are worse.
GATED_METRICS = {
    "total_joules": True,
    "edp_js": True,
}

# Exhaustive permutation up to this pooled size (C(16,8) = 12870).
EXACT_PERMUTATION_LIMIT = 16
MONTE_CARLO_ROUNDS = 20000
MONTE_CARLO_SEED = 0x5EED


def mean(xs):
    return sum(xs) / len(xs)


def permutation_p(a, b):
    """Two-sided permutation test p-value on the difference of means."""
    pooled = list(a) + list(b)
    n, na = len(pooled), len(a)
    observed = abs(mean(a) - mean(b))
    tolerance = 1e-12 * max(observed, 1.0)
    total_sum = sum(pooled)

    def delta(sum_a):
        return abs(sum_a / na - (total_sum - sum_a) / (n - na))

    if n <= EXACT_PERMUTATION_LIMIT:
        hits = total = 0
        for idx in itertools.combinations(range(n), na):
            total += 1
            if delta(sum(pooled[i] for i in idx)) >= observed - tolerance:
                hits += 1
        return hits / total
    rng = random.Random(MONTE_CARLO_SEED)
    hits = 0
    for _ in range(MONTE_CARLO_ROUNDS):
        rng.shuffle(pooled)
        if delta(sum(pooled[:na])) >= observed - tolerance:
            hits += 1
    return (hits + 1) / (MONTE_CARLO_ROUNDS + 1)


def mann_whitney_p(a, b):
    """Two-sided Mann-Whitney p (normal approx., midranks, ties)."""
    na, nb = len(a), len(b)
    if na == 0 or nb == 0:
        return 1.0
    pooled = sorted([(x, 0) for x in a] + [(x, 1) for x in b])
    n = na + nb
    rank_sum_a = 0.0
    tie_term = 0.0
    i = 0
    while i < n:
        j = i
        while j < n and pooled[j][0] == pooled[i][0]:
            j += 1
        midrank = (i + 1 + j) / 2.0
        t = j - i
        tie_term += t * t * t - t
        rank_sum_a += midrank * sum(1 for k in range(i, j)
                                    if pooled[k][1] == 0)
        i = j
    u = rank_sum_a - na * (na + 1) / 2.0
    mean_u = na * nb / 2.0
    var = na * nb / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    if var <= 0:
        return 1.0
    z = max(abs(u - mean_u) - 0.5, 0.0) / math.sqrt(var)
    return min(1.0, max(0.0, math.erfc(z / math.sqrt(2.0))))


def holm_significant(tests, alpha):
    """Holm-Bonferroni: return the set of indices judged significant."""
    order = sorted(range(len(tests)), key=lambda i: tests[i])
    significant = set()
    m = len(tests)
    for step, idx in enumerate(order):
        if tests[idx] <= alpha / (m - step):
            significant.add(idx)
        else:
            break
    return significant


def load_report(path):
    with open(path) as f:
        data = json.load(f)
    if data.get("schema") != SCHEMA:
        raise ValueError(f"{path}: expected schema {SCHEMA!r}, "
                         f"got {data.get('schema')!r}")
    return data


def cells_by_key(report):
    return {cell["key"]: cell for cell in report.get("cells", [])}


def compare(base, cur, alpha, min_effect, metrics, out=sys.stdout):
    """Compare two loaded reports; returns (exit_code, messages)."""
    if base.get("seeds") != cur.get("seeds"):
        print(f"error: seed lists differ ({base.get('seeds')} vs "
              f"{cur.get('seeds')}); ensembles are not comparable",
              file=sys.stderr)
        return 2

    base_cells = cells_by_key(base)
    cur_cells = cells_by_key(cur)
    for key in cur_cells.keys() - base_cells.keys():
        print(f"  note: cell {key} is new (not in baseline)", file=out)
    missing = base_cells.keys() - cur_cells.keys()
    if missing:
        print(f"error: cells missing from the current report: "
              f"{sorted(missing)}", file=sys.stderr)
        return 2

    comparisons = []  # (cell key, metric, p, rel_shift, worse, mw_p)
    failures = []
    for key in sorted(base_cells):
        bcell, ccell = base_cells[key], cur_cells[key]
        if ccell.get("failures", 0) > bcell.get("failures", 0):
            print(f"  {key}: more failed members than the baseline",
                  file=out)
            failures.append(f"{key} (failed members)")
        for name, larger_is_worse in metrics.items():
            bm = bcell["metrics"].get(name)
            cm = ccell["metrics"].get(name)
            if bm is None or cm is None:
                print(f"  {key}.{name}: missing, skipped", file=out)
                continue
            bs, cs = bm["samples"], cm["samples"]
            if len(bs) < 2 or len(cs) < 2:
                print(f"  {key}.{name}: {len(bs)} vs {len(cs)} samples",
                      file=out)
                failures.append(f"{key}.{name} (samples)")
                continue
            base_mean, cur_mean = mean(bs), mean(cs)
            rel = ((cur_mean - base_mean) / base_mean
                   if base_mean else 0.0)
            worse = rel > 0 if larger_is_worse else rel < 0
            p = permutation_p(bs, cs)
            mw = mann_whitney_p(bs, cs)
            comparisons.append((key, name, p, rel, worse, mw))

    if not comparisons and not failures:
        print("error: no comparable (cell, metric) pair",
              file=sys.stderr)
        return 2

    significant = holm_significant([c[2] for c in comparisons], alpha)
    for i, (key, name, p, rel, worse, mw) in enumerate(comparisons):
        is_sig = i in significant
        regressed = (is_sig and worse and abs(rel) >= min_effect)
        if regressed:
            verdict = "REGRESSED"
            failures.append(f"{key}.{name}")
        elif is_sig and not worse:
            verdict = "improved"
        elif is_sig:
            verdict = "shift below --min-effect"
        else:
            verdict = "ok"
        print(f"  {key}.{name}: {rel:+.2%} "
              f"(perm p={p:.4g}, mw p={mw:.4g}) {verdict}", file=out)

    if failures:
        print(f"FAIL: lost members or statistically significant energy "
              f"regression (alpha={alpha}, Holm-corrected) in: "
              f"{', '.join(failures)}", file=sys.stderr)
        return 1
    print(f"OK: no significant regression across "
          f"{len(comparisons)} comparisons (alpha={alpha})", file=out)
    return 0


def self_test():
    """Deterministic unit checks; exits nonzero on the first failure."""
    checks = []

    def check(name, cond):
        checks.append((name, cond))
        print(f"  {'ok' if cond else 'FAIL'}: {name}")

    # Identical samples: every relabeling ties the observed delta.
    same = [1.0, 2.0, 3.0, 4.0]
    check("identical samples -> p = 1", permutation_p(same, same) == 1.0)

    # Fully separated samples: only the extreme splits reach the
    # observed delta; exact p = 2 / C(8, 4) = 1/35.
    lo, hi = [1.0, 1.1, 1.2, 1.3], [2.0, 2.1, 2.2, 2.3]
    p = permutation_p(lo, hi)
    check("separated samples -> exact p = 2/70",
          abs(p - 2 / 70) < 1e-12)
    check("mann-whitney separated p < 0.05",
          mann_whitney_p(lo, hi) < 0.05)
    check("mann-whitney identical p = 1",
          mann_whitney_p(same, same) == 1.0)

    # Holm: one strong p among weak ones survives, the weak do not.
    sig = holm_significant([0.001, 0.8, 0.9], 0.05)
    check("holm keeps only the strong p", sig == {0})

    # End-to-end verdicts on synthetic reports.
    def report(samples):
        return {
            "schema": SCHEMA,
            "seeds": list(range(len(samples))),
            "cells": [{
                "key": "bench/VM/GC/32MB/P6",
                "metrics": {
                    "total_joules": {"samples": samples},
                    "edp_js": {"samples": samples},
                },
            }],
        }

    base = report([10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.03])
    worse = report([10.8, 10.9, 10.7, 10.85, 10.75, 10.82, 10.78,
                    10.83])
    same_rep = report([10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98,
                       10.03])
    import contextlib
    import io

    def quiet_compare(a, b):
        sink = io.StringIO()
        with contextlib.redirect_stderr(sink):
            return compare(a, b, 0.05, 0.002, GATED_METRICS, sink)

    check("regressed report fails", quiet_compare(base, worse) == 1)
    check("identical report passes",
          quiet_compare(base, same_rep) == 0)
    # An *improvement* of the same magnitude must pass: direction
    # matters, not just significance.
    better = report([9.2, 9.3, 9.1, 9.25, 9.15, 9.22, 9.18, 9.23])
    check("improved report passes", quiet_compare(base, better) == 0)
    thin = report([10.0])
    thin["seeds"] = base["seeds"]
    check("one-sample cell fails", quiet_compare(base, thin) == 1)
    lossy = copy.deepcopy(same_rep)
    lossy["cells"][0]["failures"] = 1
    check("more failed members fails", quiet_compare(base, lossy) == 1)

    # The committed baseline with every sample jittered by up to
    # +-0.05 % passes; the same with its energies 5 % higher fails.
    committed = load_report(os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "bench",
        "ENSEMBLE_energy.baseline.json"))
    energies = ("total_joules", "cpu_joules", "mem_joules", "edp_js",
                "gt_total_joules")

    def shifted(energy_shift, seed):
        out = copy.deepcopy(committed)
        rng = random.Random(seed)
        for cell in out["cells"]:
            for name, metric in cell["metrics"].items():
                f = 1.0 + (energy_shift if name in energies else 0.0)
                metric["samples"] = [x * f * rng.uniform(0.9995, 1.0005)
                                     for x in metric["samples"]]
        return out

    check("jittered baseline passes",
          quiet_compare(committed, shifted(0.0, 42)) == 0)
    check("+5 % energy baseline fails",
          quiet_compare(committed, shifted(0.05, 43)) == 1)

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
    ap.add_argument("baseline", nargs="?")
    ap.add_argument("current", nargs="?")
    ap.add_argument("--alpha", type=float, default=0.05,
                    help="family-wise significance level (default 0.05)")
    ap.add_argument("--min-effect", type=float, default=0.002,
                    help="minimum relative mean shift to gate on "
                         "(default 0.002 = 0.2%%)")
    ap.add_argument("--metrics", default=",".join(GATED_METRICS),
                    help="comma-separated gated metrics "
                         "(larger-is-worse semantics)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the built-in unit checks and exit")
    args = ap.parse_args()

    if args.self_test:
        return self_test()
    if not args.baseline or not args.current:
        ap.error("baseline and current reports are required")

    metrics = {name: GATED_METRICS.get(name, True)
               for name in args.metrics.split(",") if name}
    try:
        base = load_report(args.baseline)
        cur = load_report(args.current)
    except (OSError, ValueError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return compare(base, cur, args.alpha, args.min_effect, metrics)


if __name__ == "__main__":
    sys.exit(main())
