#!/usr/bin/env python3
"""Repository benchmark: build the perfbench package, run passes, report.

    python3 perfbench/run.py --workload mutator|gc|sweep --seed N \
        --seconds S --trace 0|1 [--tiny]

Run from the repository root. The benchmark is built from source into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). Each pass
is one process (perfbench/main.cc), so it starts from a fresh heap and
reports its own peak RSS and CPU time. Passes repeat until --seconds of
measuring have elapsed. Host times are those of the fastest pass, peak
RSS and the traced per-layer figures are medians over passes.

--trace 0 runs plain passes only (what users run) and prints the
end-to-end metrics. --trace 1 interleaves plain, traced and (for single
runs) detached passes and prints the per-layer metrics. The last line
of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

See perfbench/README.md for what each workload and metric is for.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("mutator", "gc", "sweep")

# A single pass never gets near this; a hung pass must not outlive the
# benchmark's own time limit.
PASS_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "wall_s": "s",
    "bytecodes_per_s": "bytecodes/s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

PER_LAYER_UNITS = {
    "jvm.app_s": "s",
    "jvm.gc_s": "s",
    "jvm.other_s": "s",
    "jvm.app_share": "ratio",
    "jvm.gc_share": "ratio",
    "jvm.app_ns_per_bytecode": "ns/bytecode",
    "jvm.gc_ns_per_object": "ns/object",
    "jvm.bytecodes": "count",
    "jvm.gc.collections": "count",
    "jvm.gc.objects_copied": "count",
    "jvm.gc.bytes_copied": "bytes",
    "jvm.gc.objects_marked": "count",
    "jvm.gc.bytes_freed": "bytes",
    "jvm.gc.remset_entries": "count",
    "jvm.gc.barrier_hits": "count",
    "jvm.classes_loaded": "count",
    "jvm.methods_compiled": "count",
    "jvm.methods_optimized": "count",
    "sim.instructions": "count",
    "sim.cycles": "count",
    "sim.ipc": "instr/cycle",
    "sim.l1d_accesses": "count",
    "sim.l1d_miss_rate": "ratio",
    "sim.l2_accesses": "count",
    "sim.l2_miss_rate": "ratio",
    "sim.dram_accesses": "count",
    "sim.seconds": "s",
    "sim.host_ns_per_instruction": "ns/instruction",
    "core.port_writes": "count",
    "core.daq_samples": "count",
    "core.hpm_samples": "count",
    "core.samplers_s": "s",
    "workloads.build_s": "s",
    "harness.boot_s": "s",
    "harness.job_engine.shard_s.p50": "s",
    "harness.job_engine.shard_s.max": "s",
    "harness.job_engine.busy_frac": "ratio",
    "harness.job_engine.tail_s": "s",
    "harness.job_engine.class_s.jikes_p6": "s",
    "harness.job_engine.class_s.kaffe_pxa255": "s",
    "harness.job_engine.class_s.cotenancy": "s",
    "harness.job_engine.journal_bytes": "bytes",
    "harness.tenant_set.context_switches": "count",
    "trace_overhead_frac": "ratio",
    "failed_frac": "ratio",
}


class BenchError(Exception):
    pass


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")) / "perfbench"


def build():
    """Configure (once) and build the perfbench binary; return its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"javelin sources not found under {ROOT}")
    out = build_dir()
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out)])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("build failed: " + " ".join(cmd))
    return out / "perfbench"


def run_pass(binary, args, mode):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--mode", mode, "--workdir", str(build_dir() / "work")]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{mode} pass exited {proc.returncode}: {proc.stderr.strip()}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["mode"] = mode
    return record


def run_passes(binary, args):
    """Cycle through the modes until --seconds have elapsed (one cycle at least)."""
    if not args.trace:
        modes, min_cycles = ["plain"], 3
    elif args.workload == "sweep":
        modes, min_cycles = ["plain", "traced"], 1
    else:
        modes, min_cycles = ["plain", "traced", "detached"], 1
    passes = []
    start = time.monotonic()
    cycles = 0
    while cycles < min_cycles or time.monotonic() - start < args.seconds:
        for mode in modes:
            passes.append(run_pass(binary, args, mode))
        cycles += 1
    return passes


def check(passes):
    """Count failed runs; a pass whose outputs differ from the first
    plain pass fails as a whole. Returns (attempted, failed, errors,
    detached_matches)."""
    reference = next(p for p in passes if p["mode"] == "plain")
    attempted = failed = 0
    errors = []
    detached_matches = True
    for p in passes:
        if p["mode"] == "detached":
            detached_matches &= p["sim_fingerprint"] == reference["sim_fingerprint"]
            continue
        attempted += p["attempted"]
        if (p["sim_fingerprint"], p["full_fingerprint"]) != (
                reference["sim_fingerprint"], reference["full_fingerprint"]):
            failed += p["attempted"]
            errors.append(f"{p['mode']} pass simulated different outputs "
                          "than the first plain pass")
        else:
            failed += p["failed"]
            errors.extend(p["errors"])
    return attempted, failed, errors, detached_matches


def median_of(passes, key):
    return statistics.median(p["values"][key] for p in passes)


def best_of(passes, key):
    """Fastest pass. The simulation is deterministic, so a slower pass
    only measures interference from the host: see README.md, "Host
    noise"."""
    return min(p["values"][key] for p in passes)


def setup_seconds(p):
    return p["values"]["workloads.build_s"] + p["values"]["harness.boot_s"]


def end_to_end(plain):
    wall = best_of(plain, "wall_s")
    return {
        "wall_s": wall,
        "bytecodes_per_s": plain[0]["values"]["jvm.bytecodes"] / wall,
        "cpu_s": best_of(plain, "cpu_s"),
        "peak_rss_mb": median_of(plain, "peak_rss_mb"),
        "setup_s": min(setup_seconds(p) for p in plain),
    }


def per_layer(passes, attempted, failed, detached_matches):
    by_mode = {}
    for p in passes:
        by_mode.setdefault(p["mode"], []).append(p)
    plain, traced = by_mode["plain"], by_mode["traced"]
    metrics = {name: 0.0 for name in PER_LAYER_UNITS}
    for name in traced[0]["values"]:
        if name in metrics:
            metrics[name] = median_of(traced, name)
    plain_wall = best_of(plain, "wall_s")
    # The two parts of the pass that gave setup_s, so they add up to it.
    setup = min(plain, key=setup_seconds)["values"]
    metrics["workloads.build_s"] = setup["workloads.build_s"]
    metrics["harness.boot_s"] = setup["harness.boot_s"]
    metrics["trace_overhead_frac"] = best_of(traced, "wall_s") / plain_wall - 1.0
    metrics["failed_frac"] = failed / attempted
    if "detached" in by_mode:
        instructions = metrics["sim.instructions"]
        metrics["sim.host_ns_per_instruction"] = plain_wall / instructions * 1e9
        if detached_matches:
            metrics["core.samplers_s"] = plain_wall - best_of(by_mode["detached"], "wall_s")
        else:
            print("perfbench: detached pass simulated different counters; "
                  "core.samplers_s not reported", file=sys.stderr)
    return metrics


def write_trace(args, passes):
    """Spans stay in memory until the run ends, then go to one file."""
    traced = [p["spans"] for p in passes if p["mode"] == "traced"]
    path = build_dir() / f"trace-{args.workload}.json"
    path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                "passes": traced}) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test scale: small datasets, one sweep cell per kind")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    try:
        binary = build()
        passes = run_passes(binary, args)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    attempted, failed, errors, detached_matches = check(passes)
    for e in errors[:10]:
        print(f"perfbench: check failed: {e}", file=sys.stderr)
    if args.trace:
        write_trace(args, passes)
        values = per_layer(passes, attempted, failed, detached_matches)
        units = PER_LAYER_UNITS
    else:
        values = end_to_end(passes)
        units = END_TO_END_UNITS
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
