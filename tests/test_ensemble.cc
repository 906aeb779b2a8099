/**
 * @file
 * Tests for the seed-ensemble regression harness: determinism across
 * worker counts, seed-value (not position) keyed members, report
 * serialization, end-to-end sensitivity to an injected model change,
 * and the same failure text as the job engine for a failed member.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "harness/ensemble.hh"
#include "harness/job_engine.hh"

using namespace javelin;
using namespace javelin::harness;

namespace {

SweepTask
cheapCell()
{
    ExperimentConfig cfg;
    cfg.collector = jvm::CollectorKind::SemiSpace;
    cfg.heapNominalMB = 32;
    cfg.dataset = workloads::DatasetScale::Small;
    return {cfg, workloads::benchmark("_202_jess")};
}

EnsembleConfig
testConfig(std::vector<std::uint64_t> seeds)
{
    EnsembleConfig cfg;
    cfg.seeds = std::move(seeds);
    cfg.resamples = 200; // enough for a CI, cheap enough for a test
    return cfg;
}

/** The one base ensemble most tests share, computed once. */
const EnsembleCellResult &
baseResult()
{
    static const EnsembleCellResult cached = [] {
        const auto results = EnsembleRunner(testConfig({7, 8, 9}))
                                 .run({cheapCell()});
        return results.at(0);
    }();
    return cached;
}

} // namespace

TEST(Ensemble, MetricsCompleteAndOrdered)
{
    const auto &cell = baseResult();
    EXPECT_EQ(cell.failures, 0u);
    EXPECT_EQ(cell.key, "_202_jess/JikesRVM/SemiSpace/32MB/P6");
    for (const auto &name : ensembleMetricNames()) {
        const auto *m = cell.metric(name);
        ASSERT_NE(m, nullptr) << name;
        EXPECT_EQ(m->samples.size(), 3u) << name;
        EXPECT_LE(m->ci.lo, m->ci.hi) << name;
    }
    EXPECT_GT(cell.metric("total_joules")->ci.point, 0.0);
    EXPECT_GT(cell.metric("gt_total_joules")->ci.point, 0.0);
    EXPECT_EQ(cell.metric("no_such_metric"), nullptr);
}

TEST(Ensemble, SeedsProduceDistinctRuns)
{
    // The ensemble must carry real run-to-run variation, or the CIs
    // degenerate and the gate can never see past a point estimate.
    const auto &samples = baseResult().metric("total_joules")->samples;
    EXPECT_NE(samples[0], samples[1]);
    EXPECT_NE(samples[1], samples[2]);
}

TEST(Ensemble, DeterministicAcrossWorkerCounts)
{
    auto serial = testConfig({7, 8, 9});
    serial.jobs = 1;
    const auto rerun = EnsembleRunner(serial).run({cheapCell()});
    const auto &base = baseResult();
    for (const auto &name : ensembleMetricNames()) {
        const auto &a = rerun.at(0).metric(name)->samples;
        const auto &b = base.metric(name)->samples;
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i)
            EXPECT_DOUBLE_EQ(a[i], b[i]) << name << " seed#" << i;
    }
}

TEST(Ensemble, MemberKeyedBySeedValueNotPosition)
{
    // Running {8} alone must reproduce the middle member of {7, 8, 9}:
    // samples depend on the seed's value, so baselines survive seed
    // list extension and cell reordering.
    const auto solo = EnsembleRunner(testConfig({8})).run({cheapCell()});
    EXPECT_DOUBLE_EQ(solo.at(0).metric("total_joules")->samples.at(0),
                     baseResult().metric("total_joules")->samples.at(1));
}

TEST(Ensemble, ReportCarriesSchemaSeedsAndSamples)
{
    std::ostringstream os;
    writeEnsembleReport(os, {baseResult()}, testConfig({7, 8, 9}));
    const std::string json = os.str();
    EXPECT_NE(json.find("\"schema\": \"javelin-ensemble-v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"seeds\": [7, 8, 9]"), std::string::npos);
    EXPECT_NE(json.find("_202_jess/JikesRVM/SemiSpace/32MB/P6"),
              std::string::npos);
    for (const auto &name : ensembleMetricNames())
        EXPECT_NE(json.find("\"" + name + "\""), std::string::npos)
            << name;
    EXPECT_EQ(json.find("nan"), std::string::npos)
        << "non-finite values must serialize as null";
}

TEST(Ensemble, DetectsInjectedEnergyCost)
{
    // End-to-end sensitivity: charging the HPM ISR at a DAQ-class
    // period must raise the model-exact energy of every paired member
    // (adaptive optimization off, so no indirect drift).
    SweepTask base = cheapCell();
    base.config.hpmPeriod = 40 * kTicksPerMicro;
    base.config.adaptiveOptimization = false;
    SweepTask charged = base;
    charged.config.hpmIsrCostCycles = 500.0;

    const auto results =
        EnsembleRunner(testConfig({7, 8, 9})).run({base, charged});
    const auto &free = results.at(0).metric("gt_total_joules")->samples;
    const auto &cost =
        results.at(1).metric("gt_total_joules")->samples;
    ASSERT_EQ(free.size(), cost.size());
    for (std::size_t i = 0; i < free.size(); ++i)
        EXPECT_GT(cost[i], free[i]) << "seed#" << i;
}

TEST(Ensemble, FailedMemberReadsTheJobEngineErrorText)
{
    // A co-tenancy cell whose tenant runs out of memory: the ensemble
    // must say why the member dropped out exactly as javelin-sweep's
    // journal does, not guess from the aggregate run flags.
    SweepTask cell = cheapCell();
    cell.config.heapScale = 0.001;
    cell.config.tenants = 2;
    cell.config.requestsPerTenant = 4;
    const std::string expected = "tenant failed: OutOfMemoryError";

    const auto ensemble = EnsembleRunner(testConfig({1})).run({cell});
    ASSERT_EQ(ensemble.at(0).failures, 1u);
    EXPECT_EQ(ensemble.at(0).firstError, expected);

    JobEngine::Config jc;
    jc.jobs = 1;
    const JobReport report =
        JobEngine(jc).run({cell}, "failing-cell", "no-checkpoint");
    ASSERT_EQ(report.records.size(), 1u);
    EXPECT_FALSE(report.records[0].ok);
    EXPECT_EQ(report.records[0].error, expected);
}
