/**
 * @file
 * Tests for the parallel sweep engine: results must be bit-identical
 * to a serial run for any worker count, per-task seeds deterministic,
 * failures isolated per task, and every index visited exactly once.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>

#include "harness/report.hh"
#include "harness/scenario.hh"
#include "harness/sweep.hh"

using namespace javelin;
using namespace javelin::harness;

namespace {

std::vector<SweepTask>
smallSweep()
{
    // A mixed sweep: two benchmarks, two heaps, one noisy config so
    // the per-task RNG seeding matters.
    std::vector<SweepTask> tasks;
    for (const char *name : {"_202_jess", "_209_db"}) {
        for (const std::uint32_t heap : {32u, 64u}) {
            ExperimentConfig cfg;
            cfg.dataset = workloads::DatasetScale::Small;
            cfg.heapNominalMB = heap;
            cfg.senseNoiseVoltsRms = heap == 64 ? 0.0005 : 0.0;
            tasks.push_back({cfg, workloads::benchmark(name)});
        }
    }
    return tasks;
}

void
expectIdentical(const std::vector<ExperimentResult> &a,
                const std::vector<ExperimentResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_FALSE(a[i].failed);
        EXPECT_FALSE(b[i].failed);
        EXPECT_EQ(a[i].run.endTick, b[i].run.endTick);
        EXPECT_EQ(a[i].run.returnValue, b[i].run.returnValue);
        EXPECT_EQ(a[i].run.gc.collections, b[i].run.gc.collections);
        EXPECT_DOUBLE_EQ(a[i].attribution.totalCpuJoules,
                         b[i].attribution.totalCpuJoules);
        EXPECT_DOUBLE_EQ(a[i].attribution.totalMemJoules,
                         b[i].attribution.totalMemJoules);
        EXPECT_DOUBLE_EQ(a[i].groundTruthCpuJoules,
                         b[i].groundTruthCpuJoules);
    }
}

} // namespace

TEST(SweepRunner, ParallelResultsIdenticalToSerial)
{
    const auto tasks = smallSweep();
    SweepRunner::Config serial;
    serial.jobs = 1;
    SweepRunner::Config parallel;
    parallel.jobs = 4;
    const auto a = SweepRunner(serial).run(tasks);
    const auto b = SweepRunner(parallel).run(tasks);
    expectIdentical(a, b);
}

TEST(SweepRunner, MatchesHandWrittenSerialLoop)
{
    const auto tasks = smallSweep();
    std::vector<ExperimentResult> byHand(tasks.size());
    for (std::size_t i = 0; i < tasks.size(); ++i) {
        auto task = tasks[i];
        task.config.seed =
            SweepRunner::taskSeed(task.config.seed, i);
        byHand[i] = runExperiment(task.config, task.profile);
    }
    SweepRunner::Config cfg;
    cfg.jobs = 4;
    expectIdentical(byHand, SweepRunner(cfg).run(tasks));
}

TEST(SweepRunner, TaskSeedDeterministicAndDistinct)
{
    std::set<std::uint64_t> seen;
    for (std::size_t i = 0; i < 100; ++i) {
        const auto s = SweepRunner::taskSeed(7, i);
        EXPECT_EQ(s, SweepRunner::taskSeed(7, i));
        seen.insert(s);
    }
    seen.insert(SweepRunner::taskSeed(8, 0));
    EXPECT_EQ(seen.size(), 101u);
}

TEST(SweepRunner, ExceptionCapturedPerTask)
{
    std::vector<SweepTask> tasks(3);
    for (std::uint32_t i = 0; i < 3; ++i) {
        tasks[i].config.heapNominalMB = i;
        tasks[i].profile.name = "task" + std::to_string(i);
    }

    SweepRunner::Config cfg;
    cfg.jobs = 2;
    cfg.execute = [](const SweepTask &task) {
        if (task.config.heapNominalMB == 1)
            throw std::runtime_error("injected failure");
        ExperimentResult res;
        res.config = task.config;
        res.run.returnValue = task.config.heapNominalMB;
        return res;
    };
    const auto results = SweepRunner(cfg).run(tasks);
    ASSERT_EQ(results.size(), 3u);
    EXPECT_TRUE(results[0].ok());
    EXPECT_TRUE(results[1].failed);
    EXPECT_FALSE(results[1].ok());
    EXPECT_EQ(results[1].error(), "injected failure");
    EXPECT_TRUE(results[2].ok());
    EXPECT_EQ(results[0].run.returnValue, 0u);
    EXPECT_EQ(results[2].run.returnValue, 2u);
    // The failed result is stamped with the task it ran, seed mixed.
    EXPECT_EQ(results[1].benchmark, "task1");
    EXPECT_EQ(results[1].config.heapNominalMB, 1u);
    EXPECT_EQ(results[1].config.seed,
              SweepRunner::taskSeed(tasks[1].config.seed, 1));
}

TEST(SweepRunner, ReportSweepFailuresListsOnlyHarnessFailures)
{
    std::vector<SweepTask> tasks(4);
    for (std::uint32_t i = 0; i < 4; ++i) {
        tasks[i].config.heapNominalMB = 32 + i;
        tasks[i].profile.name = "task" + std::to_string(i);
    }
    SweepRunner::Config cfg;
    cfg.jobs = 2;
    cfg.execute = [](const SweepTask &task) {
        if (task.config.heapNominalMB == 34)
            throw std::runtime_error("injected failure");
        ExperimentResult res;
        res.config = task.config;
        res.run.outOfMemory = task.config.heapNominalMB == 33;
        return res;
    };
    const auto results = SweepRunner(cfg).run(tasks);
    ASSERT_EQ(results.size(), 4u);
    // The out-of-memory run is a result ("did not fit"), not a failure.
    EXPECT_FALSE(results[1].ok());
    EXPECT_FALSE(results[1].failed);

    std::ostringstream os;
    EXPECT_EQ(reportSweepFailures(os, tasks, results), 1u);
    EXPECT_EQ(os.str(), "sweep failure: shard 2 [" + shardKey(tasks[2]) +
                            "]: injected failure\n");
    EXPECT_EQ(os.str().find("task1"), std::string::npos);
}

TEST(SweepRunner, RunTaskNeverThrows)
{
    SweepTask task;
    task.profile.name = "thrower";
    const auto res = SweepRunner::runTask(
        task, [](const SweepTask &) -> ExperimentResult { throw 42; });
    EXPECT_TRUE(res.failed);
    EXPECT_EQ(res.error(), "unknown exception");
    EXPECT_EQ(res.benchmark, "thrower");
}

TEST(SweepRunner, ErrorTextNamesWhyARunIsNotOk)
{
    ExperimentResult res;
    EXPECT_EQ(res.error(), "");
    res.run.stackOverflow = true;
    EXPECT_EQ(res.error(), "stack overflow");
    res.run.outOfMemory = true;
    EXPECT_EQ(res.error(), "out of memory");
    res.failed = true;
    EXPECT_EQ(res.error(), "harness failure");
    res.failMessage = "tenant failed: OutOfMemoryError";
    EXPECT_EQ(res.error(), "tenant failed: OutOfMemoryError");
}

TEST(SweepRunner, ProgressReportsEveryCompletion)
{
    std::vector<SweepTask> tasks(5);
    std::vector<std::pair<std::size_t, std::size_t>> calls;
    SweepRunner::Config cfg;
    cfg.jobs = 3;
    cfg.execute = [](const SweepTask &) { return ExperimentResult(); };
    // The runner invokes progress under its own lock.
    cfg.progress = [&](std::size_t done, std::size_t total) {
        calls.emplace_back(done, total);
    };
    SweepRunner(cfg).run(tasks);
    ASSERT_EQ(calls.size(), 5u);
    for (std::size_t i = 0; i < calls.size(); ++i) {
        EXPECT_EQ(calls[i].first, i + 1);
        EXPECT_EQ(calls[i].second, 5u);
    }
}

TEST(SweepRunner, ParallelForCoversEachIndexOnce)
{
    std::vector<int> hits(97, 0);
    std::size_t lastDone = 0;
    SweepRunner::parallelFor(
        hits.size(), [&](std::size_t i) { ++hits[i]; }, 4,
        [&](std::size_t done, std::size_t total) {
            EXPECT_EQ(done, lastDone + 1);
            EXPECT_EQ(total, hits.size());
            lastDone = done;
        });
    for (const int h : hits)
        EXPECT_EQ(h, 1);
    EXPECT_EQ(lastDone, hits.size());
}

TEST(SweepRunner, ResolveJobsHonorsEnvironment)
{
    EXPECT_EQ(SweepRunner::resolveJobs(5), 5u);
    ::setenv("JAVELIN_JOBS", "3", 1);
    EXPECT_EQ(SweepRunner::resolveJobs(0), 3u);
    ::setenv("JAVELIN_JOBS", "not-a-number", 1);
    EXPECT_GE(SweepRunner::resolveJobs(0), 1u);
    // A sign is invalid, not negated into ~2^32 workers.
    ::setenv("JAVELIN_JOBS", "-1", 1);
    const unsigned negative = SweepRunner::resolveJobs(0);
    ::unsetenv("JAVELIN_JOBS");
    EXPECT_GE(SweepRunner::resolveJobs(0), 1u);
    EXPECT_EQ(negative, SweepRunner::resolveJobs(0));
}

TEST(SweepRunner, ParseJobsAcceptsDigitsOnly)
{
    unsigned jobs = 7;
    EXPECT_TRUE(SweepRunner::parseJobs("0", jobs));
    EXPECT_EQ(jobs, 0u);
    EXPECT_TRUE(SweepRunner::parseJobs("4294967295", jobs));
    EXPECT_EQ(jobs, 4294967295u);
    for (const char *bad : {"", "-1", "+1", " 1", "1x", "1.5", "abc",
                            "4294967296", "99999999999999999999999"})
        EXPECT_FALSE(SweepRunner::parseJobs(bad, jobs)) << bad;
    EXPECT_EQ(jobs, 4294967295u) << "a rejected parse must not write";
}

TEST(SweepRunner, ParseCountAcceptsDigitsOnly)
{
    std::uint64_t n = 7;
    EXPECT_TRUE(SweepRunner::parseCount("0", n));
    EXPECT_EQ(n, 0u);
    EXPECT_TRUE(SweepRunner::parseCount("18446744073709551615", n));
    EXPECT_EQ(n, 18446744073709551615ULL);
    for (const char *bad : {"", "-4", "+1", " 1", "1 ", "1/4", "abc",
                            "18446744073709551616"})
        EXPECT_FALSE(SweepRunner::parseCount(bad, n)) << bad;
    EXPECT_EQ(n, 18446744073709551615ULL)
        << "a rejected parse must not write";
}
