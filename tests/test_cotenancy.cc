/**
 * @file
 * Co-tenancy attribution properties (DESIGN.md §11).
 *
 * The load-bearing invariant of the TenantSet is conservation: every
 * chronological energy/tick/counter delta is charged to exactly one
 * account (a tenant or idle), and the platform totals are defined as
 * the index-order sum of those accounts. The property tests here
 * re-derive the sums independently and require bit-for-bit equality
 * across seeds and tenant counts, cross-check them against the power
 * models' own integrals, pin that an idle tenant is charged only its
 * boot, and require whole-run determinism across reruns.
 */

#include <gtest/gtest.h>

#include "harness/experiment.hh"
#include "harness/tenant_set.hh"
#include "workloads/program_builder.hh"
#include "workloads/suite.hh"

using namespace javelin;
using harness::CoTenancyResult;
using harness::ExperimentConfig;
using harness::TenantSet;
using harness::TenantSpec;

namespace {

ExperimentConfig
serviceConfig(std::uint32_t tenants, std::uint64_t seed)
{
    ExperimentConfig cfg;
    cfg.dataset = workloads::DatasetScale::Small;
    cfg.heapNominalMB = 32;
    cfg.tenants = tenants;
    cfg.requestsPerTenant = 6;
    cfg.requestRateHz = 4000.0;
    cfg.seed = seed;
    return cfg;
}

} // namespace

/**
 * Conservation property: for every seed x tenant-count point, the sum
 * of the per-tenant joules plus the idle account equals the platform
 * total bit-for-bit, the same holds for on-CPU ticks against the run's
 * span, and the partitioned total agrees with the independently
 * integrated power model up to floating-point reassociation.
 */
TEST(CoTenancy, AttributionConservesPlatformTotals)
{
    const auto profile = workloads::benchmark("_202_jess");
    for (const std::uint64_t seed : {7ULL, 13ULL}) {
        for (const std::uint32_t tenants : {1u, 2u, 4u}) {
            SCOPED_TRACE(testing::Message()
                         << "seed=" << seed << " tenants=" << tenants);
            const auto res =
                harness::runExperiment(serviceConfig(tenants, seed),
                                       profile);
            ASSERT_FALSE(res.failed) << res.failMessage;
            const CoTenancyResult &ct = res.cotenancy;
            ASSERT_EQ(ct.tenants.size(), tenants);

            // Re-derive the platform totals exactly as defined: plain
            // index-order sum of the accounts, idle last.
            double cpuSum = 0.0, memSum = 0.0;
            Tick tickSum = 0;
            std::uint64_t cycleSum = 0;
            for (const auto &a : ct.tenants) {
                EXPECT_EQ(a.requestsServed, 6u);
                EXPECT_GT(a.cpuJoules, 0.0);
                cpuSum += a.cpuJoules;
                memSum += a.memJoules;
                tickSum += a.ticks;
                cycleSum += a.counters.cycles;
            }
            cpuSum += ct.idleCpuJoules;
            memSum += ct.idleMemJoules;
            tickSum += ct.idleTicks;

            EXPECT_EQ(cpuSum, ct.platformCpuJoules);
            EXPECT_EQ(memSum, ct.platformMemJoules);
            EXPECT_EQ(tickSum, ct.endTick - ct.startTick);

            // Cross-check: the chronological partition re-sums to the
            // power models' own integration of the same run (equal up
            // to reassociation of the per-boundary deltas).
            EXPECT_NEAR(ct.platformCpuJoules, ct.modelCpuJoules,
                        ct.modelCpuJoules * 1e-9);
            EXPECT_NEAR(ct.platformMemJoules, ct.modelMemJoules,
                        ct.modelMemJoules * 1e-9);

            // The HPM cycle counters partition the same way: every
            // cycle the platform retired during the run is in exactly
            // one account (idle advances time without executing).
            EXPECT_LE(cycleSum, res.counters.cycles);

            // The run's GC rollup is the sum over tenants, field by
            // field, and the thermal outcome is filled in.
#define EXPECT_ROLLED_UP(f)                                              \
    do {                                                                 \
        std::uint64_t sum = 0;                                           \
        for (const auto &a : ct.tenants)                                 \
            sum += a.vm.gc.f;                                            \
        EXPECT_EQ(res.run.gc.f, sum) << #f;                              \
    } while (0)
            EXPECT_ROLLED_UP(collections);
            EXPECT_ROLLED_UP(minorCollections);
            EXPECT_ROLLED_UP(majorCollections);
            EXPECT_ROLLED_UP(pauseTicks);
            EXPECT_ROLLED_UP(bytesAllocated);
            EXPECT_ROLLED_UP(objectsAllocated);
            EXPECT_ROLLED_UP(bytesCopied);
            EXPECT_ROLLED_UP(objectsCopied);
            EXPECT_ROLLED_UP(objectsMarked);
            EXPECT_ROLLED_UP(bytesFreed);
            EXPECT_ROLLED_UP(barrierHits);
            EXPECT_ROLLED_UP(remsetEntries);
#undef EXPECT_ROLLED_UP
            EXPECT_GT(res.maxTemperatureC,
                      harness::scaledPlatformSpec(res.config)
                          .thermal.ambientC);
        }
    }
}

/**
 * An idle tenant (requests = 0) shares the platform but never runs a
 * request: it is charged its boot and nothing else, and its account
 * stays negligible next to a serving co-tenant.
 */
TEST(CoTenancy, IdleTenantAttributesOnlyBootEnergy)
{
    ExperimentConfig cfg = serviceConfig(2, 7);
    sim::System system(harness::scaledPlatformSpec(cfg));

    workloads::StudyScale scale =
        workloads::studyScaleFor(cfg.dataset);
    scale.volume = cfg.heapScale / 64.0;
    workloads::BenchmarkProfile profile =
        workloads::benchmark("_202_jess");
    const jvm::Program program =
        workloads::buildProgram(profile, scale);

    core::ComponentPort port(
        system, core::ComponentPort::Config{cfg.chargePortWrites});
    TenantSet set(system, port);

    TenantSpec busy;
    busy.vm.heapBytes = harness::scaledHeapBytes(cfg);
    busy.vm.interp = jvm::interpConfigFor(busy.vm.kind);
    busy.program = &program;
    busy.arrival.ratePerSec = cfg.requestRateHz;
    busy.requests = 6;
    busy.seed = 11;
    set.add(busy);

    TenantSpec idler = busy;
    idler.requests = 0; // boots, then never becomes runnable
    idler.seed = 12;
    set.add(idler);

    const CoTenancyResult res = set.run();
    const auto &served = res.tenants[0];
    const auto &idle = res.tenants[1];

    ASSERT_EQ(served.requestsServed, 6u);
    EXPECT_EQ(idle.requestsServed, 0u);
    EXPECT_EQ(idle.requestsArrived, 0u);
    EXPECT_EQ(idle.vm.bytecodesExecuted, 0u);
    EXPECT_EQ(idle.gcCollections, 0u);

    // Boot on the default (Jikes-like) personality is heap/port setup
    // only: the idle account must be a rounding error next to the
    // serving tenant, and conservation must still hold bit-for-bit.
    EXPECT_GT(served.cpuJoules, 0.0);
    EXPECT_LT(idle.cpuJoules + idle.memJoules,
              0.01 * (served.cpuJoules + served.memJoules));
    EXPECT_EQ(served.cpuJoules + idle.cpuJoules + res.idleCpuJoules,
              res.platformCpuJoules);
    EXPECT_EQ(served.memJoules + idle.memJoules + res.idleMemJoules,
              res.platformMemJoules);
}

/**
 * Whole-run determinism: every interleaving decision is a function of
 * simulated state and seeds only, so an identical rerun reproduces the
 * result bit-for-bit — energies, schedule shape, latencies, counters.
 */
TEST(CoTenancy, RerunIsBitIdentical)
{
    const auto profile = workloads::benchmark("_209_db");
    ExperimentConfig cfg = serviceConfig(2, 21);
    cfg.arrival = workloads::ArrivalKind::Bursty;
    cfg.tenantCollectorRotate = true;

    const auto a = harness::runExperiment(cfg, profile);
    const auto b = harness::runExperiment(cfg, profile);
    ASSERT_FALSE(a.failed) << a.failMessage;

    EXPECT_EQ(a.cotenancy.platformCpuJoules,
              b.cotenancy.platformCpuJoules);
    EXPECT_EQ(a.cotenancy.platformMemJoules,
              b.cotenancy.platformMemJoules);
    EXPECT_EQ(a.cotenancy.idleCpuJoules, b.cotenancy.idleCpuJoules);
    EXPECT_EQ(a.cotenancy.startTick, b.cotenancy.startTick);
    EXPECT_EQ(a.cotenancy.endTick, b.cotenancy.endTick);
    EXPECT_EQ(a.cotenancy.contextSwitches, b.cotenancy.contextSwitches);
    EXPECT_EQ(a.cotenancy.gcIntervals.size(),
              b.cotenancy.gcIntervals.size());
    ASSERT_EQ(a.cotenancy.tenants.size(), b.cotenancy.tenants.size());
    for (std::size_t i = 0; i < a.cotenancy.tenants.size(); ++i) {
        const auto &ta = a.cotenancy.tenants[i];
        const auto &tb = b.cotenancy.tenants[i];
        EXPECT_EQ(ta.cpuJoules, tb.cpuJoules);
        EXPECT_EQ(ta.memJoules, tb.memJoules);
        EXPECT_EQ(ta.ticks, tb.ticks);
        EXPECT_EQ(ta.slices, tb.slices);
        EXPECT_EQ(ta.meanLatencyUs, tb.meanLatencyUs);
        EXPECT_EQ(ta.p95LatencyUs, tb.p95LatencyUs);
        EXPECT_EQ(ta.energyPerRequestJ, tb.energyPerRequestJ);
        EXPECT_EQ(ta.counters.cycles, tb.counters.cycles);
        EXPECT_EQ(ta.counters.instructions, tb.counters.instructions);
        EXPECT_EQ(ta.vm.bytecodesExecuted, tb.vm.bytecodesExecuted);
        EXPECT_EQ(ta.vm.gc.collections, tb.vm.gc.collections);
    }
    EXPECT_EQ(a.counters.cycles, b.counters.cycles);
    EXPECT_EQ(a.groundTruthCpuJoules, b.groundTruthCpuJoules);
}

/**
 * Collector rotation: with tenantCollectorRotate set, tenant i runs
 * collector (base + i) mod #kinds, so a 2-tenant SemiSpace-base run
 * pairs SemiSpace with MarkSweep and the per-tenant GC stats differ.
 */
TEST(CoTenancy, CollectorRotationGivesTenantsDistinctCollectors)
{
    const auto profile = workloads::benchmark("_202_jess");
    ExperimentConfig cfg = serviceConfig(2, 7);
    cfg.collector = jvm::CollectorKind::SemiSpace;
    cfg.tenantCollectorRotate = true;
    cfg.requestsPerTenant = 24;

    const auto res = harness::runExperiment(cfg, profile);
    ASSERT_FALSE(res.failed) << res.failMessage;
    const auto &t0 = res.cotenancy.tenants[0];
    const auto &t1 = res.cotenancy.tenants[1];
    ASSERT_EQ(t0.requestsServed, 24u);
    ASSERT_EQ(t1.requestsServed, 24u);
    ASSERT_GT(t0.gcCollections, 0u);
    ASSERT_GT(t1.gcCollections, 0u);
    // SemiSpace copies everything live on every collection; MarkSweep
    // (tenant 1 under rotation) copies nothing. The per-tenant GC
    // rollups must reflect the distinct collectors.
    EXPECT_GT(t0.vm.gc.bytesCopied, 0u);
    EXPECT_EQ(t1.vm.gc.bytesCopied, 0u);
    EXPECT_GT(t1.vm.gc.bytesFreed, 0u);
}
