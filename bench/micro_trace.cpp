/**
 * @file
 * Micro-benchmarks for trace writing (DESIGN.md §10).
 *
 * BM_TraceWrite times core::writeTrace over one fixed synthetic power
 * trace of 100,000 records, four blocks at the default 1 MiB: record
 * encoding, the sliced CRC of each block and its pwrite, file creation
 * included. items_per_second counts records; it is the gate metric of
 * scripts/ab.py (bench/perf_gates.json).
 *
 * BM_EndToEndExperimentSpooled is BM_EndToEndExperiment with
 * traceSpoolDir set, so both traces are written after every run, and
 * "trace capture is free at the experiment level" is a measured claim,
 * gated against the base revision the same way.
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
BM_TraceWrite(benchmark::State &state)
{
    constexpr std::uint64_t kRecords = 100000;
    core::PowerTrace trace;
    for (std::uint64_t i = 0; i < kRecords; ++i)
        trace.push_back(synthSample(i));
    const std::string path =
        (scratchDir("write") / "trace.jtrc").string();
    for (auto _ : state)
        core::writeTrace(path, trace);
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(kRecords));
}

void
BM_EndToEndExperimentSpooled(benchmark::State &state)
{
    // BM_EndToEndExperiment's pipeline, writing both traces.
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

BENCHMARK(BM_TraceWrite);
BENCHMARK(BM_EndToEndExperimentSpooled)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
