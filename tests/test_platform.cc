/**
 * @file
 * Platform-level tests: the P6 and PXA255 specifications, the scaled
 * memory system, prefetcher timing, and the cross-platform contrasts
 * the paper's Section VI-E builds on.
 */

#include <gtest/gtest.h>

#include "harness/experiment.hh"
#include "sim/platform.hh"
#include "sim/system.hh"

using namespace javelin;

TEST(Platform, P6Spec)
{
    const auto spec = sim::p6Spec();
    EXPECT_EQ(spec.kind, sim::PlatformKind::P6);
    EXPECT_DOUBLE_EQ(spec.cpu.freqHz, 1.6e9);
    EXPECT_EQ(spec.memory.l1i.sizeBytes, 32 * kKiB);
    ASSERT_TRUE(spec.memory.l2.has_value());
    EXPECT_EQ(spec.memory.l2->sizeBytes, 1 * kMiB);
    EXPECT_DOUBLE_EQ(spec.power.idleWatts, 4.5);   // paper Section IV-D
    EXPECT_DOUBLE_EQ(spec.memPower.idleWatts, 0.25);
    EXPECT_TRUE(spec.memory.nextLinePrefetch);
    EXPECT_EQ(spec.hpmPeriod, kTicksPerMilli);     // 1 ms OS timer
    EXPECT_EQ(spec.daqPeriod, 40 * kTicksPerMicro);
    EXPECT_FALSE(spec.dvfsPoints.empty());
}

TEST(Platform, Pxa255Spec)
{
    const auto spec = sim::pxa255Spec();
    EXPECT_EQ(spec.kind, sim::PlatformKind::Pxa255);
    EXPECT_DOUBLE_EQ(spec.cpu.freqHz, 400e6);
    EXPECT_FALSE(spec.memory.l2.has_value());      // no L2 on PXA255
    EXPECT_EQ(spec.memory.l1d.assoc, 32u);         // 32-way caches
    EXPECT_NEAR(spec.power.idleWatts, 0.070, 1e-9); // 70 mW idle
    EXPECT_NEAR(spec.memPower.idleWatts, 0.005, 1e-9);
    EXPECT_EQ(spec.hpmPeriod, 10 * kTicksPerMilli); // 10 ms OS timer
    EXPECT_FALSE(spec.memory.nextLinePrefetch);
    // GC dependence penalty vanishes on the in-order core.
    EXPECT_LT(spec.cpu.gcStallPerUop, sim::p6Spec().cpu.gcStallPerUop);
}

TEST(Platform, LookupByKind)
{
    EXPECT_EQ(sim::platformSpec(sim::PlatformKind::P6).name,
              sim::p6Spec().name);
    EXPECT_EQ(sim::platformSpec(sim::PlatformKind::Pxa255).name,
              sim::pxa255Spec().name);
}

TEST(Platform, MemoryLatencyGeometry)
{
    // The embedded platform's DRAM penalty in *cycles* is an order of
    // magnitude smaller than the P6's — the root of the paper's
    // observation that the PXA255's GC keeps a relatively high IPC.
    const auto p6 = sim::p6Spec();
    const auto pxa = sim::pxa255Spec();
    EXPECT_GT(p6.memory.dramCycles, 6 * pxa.memory.dramCycles);
}

TEST(Platform, ClockPeriodsExactInTicks)
{
    EXPECT_EQ(periodForFreq(1.6e9), 625u);   // ps
    EXPECT_EQ(periodForFreq(400e6), 2500u);  // ps
}

TEST(PrefetchTiming, LatePrefetchHitChargesCatchUp)
{
    sim::PerfCounters counters;
    sim::MemoryHierarchy::Config cfg;
    cfg.l1i = {"l1i", 1024, 2, 64};
    cfg.l1d = {"l1d", 1024, 2, 64};
    cfg.l2 = sim::Cache::Config{"l2", 64 * kKiB, 8, 64};
    cfg.l2HitCycles = 9;
    cfg.dramCycles = 180;
    cfg.nextLinePrefetch = true;
    sim::MemoryHierarchy mh(cfg, counters);

    mh.data(0x10000, false);               // miss; prefetch 0x10040
    // Push line 0x10000 out of tiny L1 (same set family).
    mh.data(0x10000 + 512, false);
    mh.data(0x10000 + 1024, false);
    // Demand hit on the prefetched line: L2 hit plus catch-up stall.
    const auto penalty = mh.data(0x10040, false);
    EXPECT_EQ(penalty, 9u + 180u / 3);
    // Second touch after re-missing L1: plain L2 hit.
    mh.data(0x10040 + 512, false);
    mh.data(0x10040 + 1024, false);
    EXPECT_EQ(mh.data(0x10040, false), 9u);
}

TEST(ScaledPlatform, EmbeddedPowerEnvelope)
{
    // A busy PXA255 draws hundreds of milliwatts; the P6 draws watts.
    harness::ExperimentConfig cfg;
    cfg.platform = sim::PlatformKind::Pxa255;
    cfg.vm = jvm::VmKind::Kaffe;
    cfg.collector = jvm::CollectorKind::IncrementalMS;
    cfg.dataset = workloads::DatasetScale::Small;
    cfg.heapNominalMB = 20;
    const auto pxa = harness::runExperiment(
        cfg, workloads::benchmark("_202_jess"));
    ASSERT_TRUE(pxa.ok());
    const double pxaW =
        pxa.attribution.totalCpuJoules / pxa.attribution.totalSeconds;
    EXPECT_GT(pxaW, 0.07);
    EXPECT_LT(pxaW, 0.7);

    cfg.platform = sim::PlatformKind::P6;
    const auto p6 = harness::runExperiment(
        cfg, workloads::benchmark("_202_jess"));
    ASSERT_TRUE(p6.ok());
    const double p6W =
        p6.attribution.totalCpuJoules / p6.attribution.totalSeconds;
    EXPECT_GT(p6W, 5.0);
    EXPECT_LT(p6W, 25.0);
    // And the P6 finishes far faster.
    EXPECT_LT(p6.run.seconds() * 4, pxa.run.seconds());
}

TEST(ScaledPlatform, ClassLoadingRelativelyPricierOnPxa)
{
    // FLASH + JAR decompression: the CL share grows on the embedded
    // board for identical work (paper Fig. 9 vs Fig. 11).
    harness::ExperimentConfig cfg;
    cfg.vm = jvm::VmKind::Kaffe;
    cfg.collector = jvm::CollectorKind::IncrementalMS;
    cfg.dataset = workloads::DatasetScale::Small;
    cfg.heapNominalMB = 20;

    cfg.platform = sim::PlatformKind::P6;
    const auto p6 = harness::runExperiment(
        cfg, workloads::benchmark("_213_javac"));
    cfg.platform = sim::PlatformKind::Pxa255;
    const auto pxa = harness::runExperiment(
        cfg, workloads::benchmark("_213_javac"));
    ASSERT_TRUE(p6.ok());
    ASSERT_TRUE(pxa.ok());
    EXPECT_GT(pxa.attribution.energyFraction(
                  core::ComponentId::ClassLoader),
              p6.attribution.energyFraction(
                  core::ComponentId::ClassLoader));
}

TEST(ScaledPlatform, GcPowerRankFlipsAcrossPlatforms)
{
    // P6: GC below the application. PXA255: GC at or above it
    // (Section VI-E's headline contrast).
    harness::ExperimentConfig cfg;
    cfg.vm = jvm::VmKind::Kaffe;
    cfg.collector = jvm::CollectorKind::IncrementalMS;
    cfg.dataset = workloads::DatasetScale::Small;
    cfg.heapNominalMB = 16;

    cfg.platform = sim::PlatformKind::P6;
    const auto p6 = harness::runExperiment(
        cfg, workloads::benchmark("_202_jess"));
    ASSERT_TRUE(p6.ok());
    const auto &p6gc = p6.attribution.powerOf(core::ComponentId::Gc);
    const auto &p6app = p6.attribution.powerOf(core::ComponentId::App);
    if (p6gc.samples > 3) {
        EXPECT_LT(p6gc.avgCpuWatts(), p6app.avgCpuWatts());
    }

    cfg.platform = sim::PlatformKind::Pxa255;
    const auto pxa = harness::runExperiment(
        cfg, workloads::benchmark("_202_jess"));
    ASSERT_TRUE(pxa.ok());
    const auto &gc = pxa.attribution.powerOf(core::ComponentId::Gc);
    const auto &app = pxa.attribution.powerOf(core::ComponentId::App);
    if (gc.samples > 3) {
        EXPECT_GT(gc.avgCpuWatts(), app.avgCpuWatts() * 0.85);
    }
}
