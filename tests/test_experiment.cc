/**
 * @file
 * Integration tests for the experiment harness: full paper-style runs
 * with end-to-end invariants — sampled attribution consistent with
 * ground truth, energy conservation, component coverage, and the
 * qualitative behaviours the paper reports.
 */

#include <gtest/gtest.h>

#include <filesystem>

#include "core/energy_accounting.hh"
#include "core/trace_spool.hh"
#include "harness/experiment.hh"
#include "harness/report.hh"
#include "scratch_dir.hh"

using namespace javelin;
using namespace javelin::harness;

namespace {

namespace fs = std::filesystem;

ExperimentConfig
smallConfig()
{
    ExperimentConfig cfg;
    cfg.dataset = workloads::DatasetScale::Small;
    cfg.heapNominalMB = 32;
    return cfg;
}

void
expectSameCounters(const sim::PerfCounters &a, const sim::PerfCounters &b)
{
#define EXPECT_FIELD_EQ(f) EXPECT_EQ(a.f, b.f) << #f
    EXPECT_FIELD_EQ(cycles);
    EXPECT_FIELD_EQ(instructions);
    EXPECT_FIELD_EQ(stallCycles);
    EXPECT_FIELD_EQ(branches);
    EXPECT_FIELD_EQ(branchMispredicts);
    EXPECT_FIELD_EQ(l1iAccesses);
    EXPECT_FIELD_EQ(l1iMisses);
    EXPECT_FIELD_EQ(l1dAccesses);
    EXPECT_FIELD_EQ(l1dMisses);
    EXPECT_FIELD_EQ(l2Accesses);
    EXPECT_FIELD_EQ(l2Misses);
    EXPECT_FIELD_EQ(l2Probes);
    EXPECT_FIELD_EQ(dramAccesses);
    EXPECT_FIELD_EQ(dramWritebacks);
#undef EXPECT_FIELD_EQ
}

void
expectSameAttribution(const core::Attribution &a, const core::Attribution &b)
{
    for (std::size_t i = 0; i < core::kNumComponents; ++i) {
        SCOPED_TRACE(core::componentName(static_cast<core::ComponentId>(i)));
        EXPECT_EQ(a.power[i].cpuJoules, b.power[i].cpuJoules);
        EXPECT_EQ(a.power[i].memJoules, b.power[i].memJoules);
        EXPECT_EQ(a.power[i].seconds, b.power[i].seconds);
        EXPECT_EQ(a.power[i].peakCpuWatts, b.power[i].peakCpuWatts);
        EXPECT_EQ(a.power[i].samples, b.power[i].samples);
        expectSameCounters(a.perf[i].counters, b.perf[i].counters);
        EXPECT_EQ(a.perf[i].samples, b.perf[i].samples);
    }
    EXPECT_EQ(a.totalCpuJoules, b.totalCpuJoules);
    EXPECT_EQ(a.totalMemJoules, b.totalMemJoules);
    EXPECT_EQ(a.totalSeconds, b.totalSeconds);
    EXPECT_EQ(a.peakCpuWatts, b.peakCpuWatts);
}

} // namespace

TEST(Experiment, ScaledHeapBytes)
{
    ExperimentConfig cfg;
    cfg.heapNominalMB = 32;
    EXPECT_EQ(scaledHeapBytes(cfg), 2 * kMiB);
    cfg.heapNominalMB = 128;
    EXPECT_EQ(scaledHeapBytes(cfg), 8 * kMiB);
}

TEST(Experiment, CacheScalingPreservesGeometry)
{
    ExperimentConfig cfg;
    const auto scaled = scaledPlatformSpec(cfg);
    const auto raw = sim::p6Spec();
    EXPECT_EQ(scaled.memory.l1d.sizeBytes, raw.memory.l1d.sizeBytes / 2);
    EXPECT_EQ(scaled.memory.l2->sizeBytes, raw.memory.l2->sizeBytes / 4);
    cfg.scaleCaches = false;
    const auto unscaled = scaledPlatformSpec(cfg);
    EXPECT_EQ(unscaled.memory.l1d.sizeBytes, raw.memory.l1d.sizeBytes);
}

TEST(Experiment, SampledEnergyMatchesGroundTruth)
{
    const auto res = runExperiment(
        smallConfig(), workloads::benchmark("_202_jess"));
    ASSERT_TRUE(res.ok());
    // DAQ-sampled totals track exact integration within a few percent
    // (quantization at the run tail).
    EXPECT_NEAR(res.attribution.totalCpuJoules, res.groundTruthCpuJoules,
                res.groundTruthCpuJoules * 0.05);
    EXPECT_NEAR(res.attribution.totalMemJoules, res.groundTruthMemJoules,
                res.groundTruthMemJoules * 0.05);
    // The run warms the package above ambient.
    EXPECT_GT(res.maxTemperatureC,
              scaledPlatformSpec(smallConfig()).thermal.ambientC);
}

/**
 * traceSpoolDir is host I/O only: a spooled run measures exactly what
 * an unspooled one does, single-VM and co-tenant alike, and its two
 * trace files attribute back to the run's own attribution.
 */
TEST(Experiment, SpooledRunMatchesAndDecodesToItsAttribution)
{
    const auto profile = workloads::benchmark("_202_jess");
    for (const std::uint32_t tenants : {0u, 2u}) {
        SCOPED_TRACE(testing::Message() << "tenants=" << tenants);
        ExperimentConfig cfg = smallConfig();
        cfg.tenants = tenants;
        cfg.requestsPerTenant = 6;
        cfg.requestRateHz = 4000.0;
        const auto plain = runExperiment(cfg, profile);

        const fs::path dir =
            scratchDir("rig_spool_" + std::to_string(tenants));
        cfg.traceSpoolDir = dir.string();
        const auto spooled = runExperiment(cfg, profile);
        ASSERT_TRUE(plain.ok());
        ASSERT_TRUE(spooled.ok());

        expectSameAttribution(spooled.attribution, plain.attribution);
        for (std::size_t i = 0; i < core::kNumComponents; ++i) {
            const auto &s = spooled.groundTruth[i];
            const auto &p = plain.groundTruth[i];
            EXPECT_EQ(s.cpuJoules, p.cpuJoules);
            EXPECT_EQ(s.memJoules, p.memJoules);
            EXPECT_EQ(s.time, p.time);
            expectSameCounters(s.counters, p.counters);
        }
        EXPECT_EQ(spooled.groundTruthCpuJoules, plain.groundTruthCpuJoules);
        EXPECT_EQ(spooled.groundTruthMemJoules, plain.groundTruthMemJoules);
        expectSameCounters(spooled.counters, plain.counters);

        // A missing file throws a TraceError that names it.
        const fs::path power = dir / "_202_jess.power.jtrc";
        const fs::path perf = dir / "_202_jess.perf.jtrc";
        expectSameAttribution(
            core::attribute(core::TraceReader(power.string()).readPower(),
                            core::TraceReader(perf.string()).readPerf()),
            spooled.attribution);
    }
}

TEST(Experiment, PerComponentAttributionWithinQuantization)
{
    auto cfg = smallConfig();
    cfg.heapNominalMB = 32;
    const auto res =
        runExperiment(cfg, workloads::benchmark("_213_javac"));
    ASSERT_TRUE(res.ok());
    const double truthGc =
        res.groundTruth[core::componentIndex(core::ComponentId::Gc)]
            .cpuJoules;
    const double sampledGc =
        res.attribution.powerOf(core::ComponentId::Gc).cpuJoules;
    // GC runs in hundreds-of-microsecond pauses against a 40 us window:
    // attribution error stays within ~15%.
    EXPECT_NEAR(sampledGc, truthGc, truthGc * 0.15 + 1e-4);
}

TEST(Experiment, ComponentsCovered)
{
    const auto res = runExperiment(
        smallConfig(), workloads::benchmark("_213_javac"));
    ASSERT_TRUE(res.ok());
    using core::ComponentId;
    for (const auto c : {ComponentId::App, ComponentId::Gc,
                         ComponentId::ClassLoader,
                         ComponentId::BaseCompiler})
        EXPECT_GT(res.groundTruth[core::componentIndex(c)].cpuJoules,
                  0.0)
            << core::componentName(c);
}

TEST(Experiment, KaffeUsesJitComponents)
{
    auto cfg = smallConfig();
    cfg.vm = jvm::VmKind::Kaffe;
    cfg.collector = jvm::CollectorKind::IncrementalMS;
    const auto res =
        runExperiment(cfg, workloads::benchmark("_209_db"));
    ASSERT_TRUE(res.ok());
    using core::ComponentId;
    EXPECT_GT(res.groundTruth[core::componentIndex(ComponentId::Jit)]
                  .cpuJoules, 0.0);
    EXPECT_EQ(res.groundTruth[core::componentIndex(
                  ComponentId::BaseCompiler)].cpuJoules, 0.0);
    // Kaffe's CL share exceeds Jikes's (lazy system classes).
    auto jikesCfg = smallConfig();
    const auto jikes =
        runExperiment(jikesCfg, workloads::benchmark("_209_db"));
    EXPECT_GT(res.attribution.energyFraction(ComponentId::ClassLoader),
              jikes.attribution.energyFraction(ComponentId::ClassLoader));
}

TEST(Experiment, GcShareDropsWithHeapSize)
{
    auto cfg = smallConfig();
    cfg.collector = jvm::CollectorKind::SemiSpace;
    cfg.heapNominalMB = 32;
    const auto small32 =
        runExperiment(cfg, workloads::benchmark("_213_javac"));
    cfg.heapNominalMB = 128;
    const auto big128 =
        runExperiment(cfg, workloads::benchmark("_213_javac"));
    ASSERT_TRUE(small32.ok());
    ASSERT_TRUE(big128.ok());
    EXPECT_GT(small32.attribution.energyFraction(core::ComponentId::Gc),
              2 * big128.attribution.energyFraction(
                      core::ComponentId::Gc));
    // Bigger heap also runs faster (fewer collections): EDP improves.
    EXPECT_LT(big128.edp(), small32.edp());
}

TEST(Experiment, PeakPowerComesFromApplication)
{
    const auto res = runExperiment(
        smallConfig(), workloads::benchmark("_227_mtrt"));
    ASSERT_TRUE(res.ok());
    // Paper Section VI-C: for most benchmarks peak power is set by the
    // application, not a JVM service component.
    EXPECT_GE(res.attribution.powerOf(core::ComponentId::App)
                  .peakCpuWatts,
              res.attribution.powerOf(core::ComponentId::Gc)
                  .peakCpuWatts * 0.95);
    EXPECT_EQ(res.attribution.peakCpuWatts,
              res.attribution.powerOf(core::ComponentId::App)
                  .peakCpuWatts);
}

TEST(Experiment, GcIsLowPowerComponentOnP6)
{
    auto cfg = smallConfig();
    cfg.collector = jvm::CollectorKind::GenCopy;
    const auto res =
        runExperiment(cfg, workloads::benchmark("_213_javac"));
    ASSERT_TRUE(res.ok());
    const auto &gc = res.attribution.powerOf(core::ComponentId::Gc);
    const auto &app = res.attribution.powerOf(core::ComponentId::App);
    EXPECT_LT(gc.avgCpuWatts(), app.avgCpuWatts());
}

TEST(Experiment, OomReportedNotFatal)
{
    auto cfg = smallConfig();
    cfg.dataset = workloads::DatasetScale::Full;
    cfg.collector = jvm::CollectorKind::GenCopy;
    cfg.heapNominalMB = 32;
    const auto res = runExperiment(cfg, workloads::benchmark("pmd"));
    EXPECT_FALSE(res.ok());
    EXPECT_TRUE(res.run.outOfMemory);
}

TEST(Experiment, DeterministicAcrossRepeats)
{
    const auto a = runExperiment(smallConfig(),
                                 workloads::benchmark("_228_jack"));
    const auto b = runExperiment(smallConfig(),
                                 workloads::benchmark("_228_jack"));
    ASSERT_TRUE(a.ok());
    EXPECT_EQ(a.run.returnValue, b.run.returnValue);
    EXPECT_EQ(a.run.endTick, b.run.endTick);
    EXPECT_DOUBLE_EQ(a.attribution.totalCpuJoules,
                     b.attribution.totalCpuJoules);
}

TEST(Experiment, SenseNoisePerturbsButPreservesMean)
{
    auto noisy = smallConfig();
    noisy.senseNoiseVoltsRms = 0.0005;
    const auto clean = runExperiment(smallConfig(),
                                     workloads::benchmark("_209_db"));
    const auto res =
        runExperiment(noisy, workloads::benchmark("_209_db"));
    ASSERT_TRUE(res.ok());
    EXPECT_NE(res.attribution.totalCpuJoules,
              clean.attribution.totalCpuJoules);
    EXPECT_NEAR(res.attribution.totalCpuJoules,
                clean.attribution.totalCpuJoules,
                clean.attribution.totalCpuJoules * 0.05);
}

TEST(Experiment, FinerDaqReducesAttributionError)
{
    auto coarse = smallConfig();
    coarse.daqPeriod = 320 * kTicksPerMicro;
    auto fine = smallConfig();
    fine.daqPeriod = 10 * kTicksPerMicro;

    const auto errFor = [](const ExperimentResult &res) {
        const double truthGc =
            res.groundTruth[core::componentIndex(core::ComponentId::Gc)]
                .cpuJoules;
        const double sampled =
            res.attribution.powerOf(core::ComponentId::Gc).cpuJoules;
        return std::abs(sampled - truthGc) / truthGc;
    };

    const auto a =
        runExperiment(coarse, workloads::benchmark("_213_javac"));
    const auto b =
        runExperiment(fine, workloads::benchmark("_213_javac"));
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_LT(errFor(b), errFor(a) + 0.02);
}

TEST(Experiment, Pxa255RunsEmbeddedStudy)
{
    ExperimentConfig cfg;
    cfg.platform = sim::PlatformKind::Pxa255;
    cfg.vm = jvm::VmKind::Kaffe;
    cfg.collector = jvm::CollectorKind::IncrementalMS;
    cfg.dataset = workloads::DatasetScale::Small;
    cfg.heapNominalMB = 16;
    const auto res =
        runExperiment(cfg, workloads::benchmark("_201_compress"));
    ASSERT_TRUE(res.ok());
    // Embedded power levels: hundreds of milliwatts, not watts.
    const double avgW =
        res.attribution.totalCpuJoules / res.attribution.totalSeconds;
    EXPECT_GT(avgW, 0.07);
    EXPECT_LT(avgW, 0.6);
}

TEST(Report, TablesRenderWithOomMarkers)
{
    auto cfg = smallConfig();
    std::vector<ExperimentResult> results;
    results.push_back(
        runExperiment(cfg, workloads::benchmark("_209_db")));
    ExperimentResult oom = results.front();
    oom.run.outOfMemory = true;
    results.push_back(oom);

    const auto table =
        energyDecompositionTable(results, jikesComponents());
    EXPECT_EQ(table.rows(), 2u);
    EXPECT_EQ(table.at(1, 2), "OOM");

    const auto ptable = powerTable(results, kaffeComponents());
    EXPECT_EQ(ptable.rows(), 2u);
}
