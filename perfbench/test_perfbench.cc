/**
 * @file
 * Tests of the benchmark's metric math and of its passes at tiny
 * scale: the traced pipeline must simulate exactly what
 * runExperiment simulates, and the workload seed must reach the
 * generated program.
 */

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>

#include "metrics.hh"
#include "passes.hh"

using namespace javelin;
using namespace javelin::perfbench;
using core::ComponentId;

namespace {

std::string
workdir()
{
    return (std::filesystem::temp_directory_path() /
            ("perfbench_test_" + std::to_string(::getpid())))
        .string();
}

} // namespace

TEST(Metrics, Median)
{
    EXPECT_EQ(median({}), 0.0);
    EXPECT_EQ(median({3.0}), 3.0);
    EXPECT_EQ(median({5.0, 1.0, 3.0}), 3.0);
    EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(Metrics, BusyFractionOfSyntheticShards)
{
    // Two workers over 4 s of wall: 3 + 1 + 2 shard-seconds of 8.
    const std::vector<ShardSpan> spans = {{0, 3}, {0, 1}, {1, 3}};
    EXPECT_DOUBLE_EQ(busyFraction(spans, 4.0, 2), 6.0 / 8.0);
    EXPECT_EQ(busyFraction(spans, 0.0, 2), 0.0);
}

TEST(Metrics, TailStartsWhenARunningShardFinishesAfterTheLastStart)
{
    // Workers 2; the last shard starts at 2 with both workers busy
    // until 3, after which only the long shard runs until 4.
    const std::vector<ShardSpan> spans = {{0, 4}, {0, 1}, {1, 2}, {2, 3}};
    EXPECT_DOUBLE_EQ(tailSeconds(spans, 2), 1.0);
    // A perfectly balanced pool has no tail.
    EXPECT_DOUBLE_EQ(tailSeconds({{0, 2}, {0, 2}}, 2), 0.0);
}

TEST(Metrics, TailCoversIdleWorkersFromTheLastStart)
{
    // Four workers but two shards: the pool is short-handed from the
    // last start (0.5) to the end (3).
    const std::vector<ShardSpan> spans = {{0, 3}, {0.5, 2}};
    EXPECT_DOUBLE_EQ(tailSeconds(spans, 4), 2.5);
    EXPECT_EQ(tailSeconds({}, 4), 0.0);
}

TEST(Metrics, ComponentClockFollowsNestedPushPop)
{
    sim::System system(sim::platformSpec(sim::PlatformKind::Pxa255));
    core::ComponentPort port(system);
    double now = 100.0;
    ComponentClock clock(port, [&now] { return now; });
    clock.start();

    now += 1; // App
    port.push(ComponentId::ClassLoader);
    now += 2; // ClassLoader
    port.push(ComponentId::Jit);
    now += 4; // Jit
    port.push(ComponentId::Jit); // recurrent entry: no switch
    now += 8; // Jit
    port.pop();
    now += 16; // still Jit
    port.pop();
    now += 32; // ClassLoader again
    port.push(ComponentId::Gc);
    now += 64; // Gc
    port.pop();
    port.pop();
    now += 128; // App
    clock.stop();
    port.push(ComponentId::Gc); // after stop: ignored
    now += 256;
    port.pop();

    EXPECT_DOUBLE_EQ(clock.seconds(ComponentId::App), 1 + 128);
    EXPECT_DOUBLE_EQ(clock.seconds(ComponentId::ClassLoader), 2 + 32);
    EXPECT_DOUBLE_EQ(clock.seconds(ComponentId::Jit), 4 + 8 + 16);
    EXPECT_DOUBLE_EQ(clock.seconds(ComponentId::Gc), 64);
    EXPECT_DOUBLE_EQ(clock.totalSeconds(), 255);
}

TEST(Metrics, FingerprintSeesEveryBit)
{
    EXPECT_EQ(Fingerprint().add(1.0).hex(), Fingerprint().add(1.0).hex());
    EXPECT_NE(Fingerprint().add(0.0).hex(), Fingerprint().add(-0.0).hex());
    EXPECT_NE(Fingerprint().add(std::string("ab")).add(std::string("c")).hex(),
              Fingerprint().add(std::string("a")).add(std::string("bc")).hex());
}

TEST(Passes, TracedAndDetachedPipelinesSimulateWhatRunExperimentDoes)
{
    for (const char *name : {"mutator", "gc"}) {
        const Workload w = makeWorkload(name, 1, true);
        const PassRecord plain = runPass(w, Mode::Plain, workdir());
        const PassRecord traced = runPass(w, Mode::Traced, workdir());
        const PassRecord detached = runPass(w, Mode::Detached, workdir());
        EXPECT_EQ(plain.failed, 0u) << name;
        EXPECT_EQ(traced.failed, 0u) << name;
        EXPECT_EQ(traced.simFingerprint, plain.simFingerprint) << name;
        EXPECT_EQ(traced.fullFingerprint, plain.fullFingerprint) << name;
        EXPECT_EQ(detached.simFingerprint, plain.simFingerprint) << name;
        EXPECT_GT(traced.values.at("jvm.app_s"), 0.0) << name;
        EXPECT_NEAR(traced.values.at("jvm.app_share") +
                        traced.values.at("jvm.gc_share"),
                    1.0, 0.05)
            << name;
    }
}

TEST(Passes, SeedChangesTheProgramAndStillPassesEveryCheck)
{
    const Workload one = makeWorkload("mutator", 1, true);
    const Workload two = makeWorkload("mutator", 2, true);
    EXPECT_NE(one.tasks[0].profile.seed, two.tasks[0].profile.seed);
    EXPECT_NE(one.tasks[0].config.seed, two.tasks[0].config.seed);
    const PassRecord a = runPass(one, Mode::Plain, workdir());
    const PassRecord again = runPass(one, Mode::Plain, workdir());
    const PassRecord b = runPass(two, Mode::Plain, workdir());
    EXPECT_EQ(a.failed, 0u);
    EXPECT_EQ(b.failed, 0u);
    EXPECT_EQ(a.fullFingerprint, again.fullFingerprint);
    EXPECT_NE(a.simFingerprint, b.simFingerprint);
}

TEST(Passes, SweepReportIsIdenticalTracedOrNot)
{
    const Workload w = makeWorkload("sweep", 1, true);
    ASSERT_EQ(w.tasks.size(), 3u);
    const PassRecord plain = runPass(w, Mode::Plain, workdir());
    const PassRecord traced = runPass(w, Mode::Traced, workdir());
    std::filesystem::remove_all(workdir());
    EXPECT_EQ(plain.failed, 0u);
    EXPECT_EQ(plain.attempted, 3u);
    EXPECT_EQ(traced.fullFingerprint, plain.fullFingerprint);
    for (const char *kind : {"jikes_p6", "kaffe_pxa255", "cotenancy"})
        EXPECT_GT(traced.values.at(std::string("harness.job_engine.class_s.") +
                                   kind),
                  0.0)
            << kind;
    EXPECT_GT(traced.values.at("harness.job_engine.journal_bytes"), 0.0);
    EXPECT_GT(traced.values.at("harness.tenant_set.context_switches"), 0.0);
}
