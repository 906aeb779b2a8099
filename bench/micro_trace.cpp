/**
 * @file
 * Micro-benchmarks for the trace spool (DESIGN.md §10).
 *
 * BM_TraceCapture times the whole cost the spool adds per sample:
 * encode into the block buffer, plus sealing and writing each full
 * 1 MiB block, which happen inside the append that fills it.
 * items_per_second is the gate metric — capture must stay cheap
 * enough that a 40 µs-period DAQ never notices it.
 *
 * BM_EndToEndExperimentSpooled is BM_EndToEndExperiment with both
 * spools attached, so "spooling is free at the experiment level" is a
 * measured claim, gated against the base revision by scripts/ab.py
 * (bench/perf_gates.json).
 */

#include <benchmark/benchmark.h>

#include "../tests/scratch_dir.hh"
#include "core/trace_spool.hh"
#include "harness/experiment.hh"
#include "workloads/suite.hh"

using namespace javelin;

namespace {

core::PowerSample
synthSample(std::uint64_t i)
{
    core::PowerSample s;
    s.tick = (i + 1) * 40 * kTicksPerMicro;
    s.windowTicks = 40 * kTicksPerMicro;
    s.cpuWatts = 2.0 + static_cast<double>(i % 997) / 997.0;
    s.memWatts = 0.3 + static_cast<double>(i % 101) / 303.0;
    s.component =
        static_cast<core::ComponentId>(i % core::kNumComponents);
    return s;
}

void
BM_TraceCapture(benchmark::State &state)
{
    // Per-sample spool append; full blocks are written to the scratch
    // directory inside the timed loop.
    core::TraceSpool::Config cfg;
    cfg.path = (scratchDir("capture") / "capture.jtrc").string();
    core::TraceSpool spool(cfg);
    std::uint64_t i = 0;
    for (auto _ : state)
        spool.append(synthSample(i++));
    state.SetItemsProcessed(static_cast<std::int64_t>(i));
    state.counters["samples_per_sec"] = benchmark::Counter(
        static_cast<double>(i), benchmark::Counter::kIsRate);
    spool.close();
}

void
BM_EndToEndExperimentSpooled(benchmark::State &state)
{
    // BM_EndToEndExperiment's pipeline with power + perf spooling on.
    std::uint64_t total_bytecodes = 0;
    const std::string spoolDir = scratchDir("spooled").string();
    for (auto _ : state) {
        harness::ExperimentConfig cfg;
        cfg.dataset = workloads::DatasetScale::Small;
        cfg.heapNominalMB = 32;
        cfg.traceSpoolDir = spoolDir;
        const auto res = harness::runExperiment(
            cfg, workloads::benchmark("_202_jess"));
        benchmark::DoNotOptimize(res.run.returnValue);
        total_bytecodes += res.run.bytecodesExecuted;
    }
    state.counters["bytecodes_per_sec"] =
        benchmark::Counter(static_cast<double>(total_bytecodes),
                           benchmark::Counter::kIsRate);
}

} // namespace

BENCHMARK(BM_TraceCapture);
BENCHMARK(BM_EndToEndExperimentSpooled)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
