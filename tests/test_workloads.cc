/**
 * @file
 * Tests for the benchmark suite and program builder: every profile must
 * produce a verifiable program whose runtime behaviour matches its
 * declared characteristics (allocation volume, live set, class count),
 * and checksums must be reproducible. Also the shapes of the service
 * request arrival processes.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "jvm/jvm.hh"
#include "sim/platform.hh"
#include "workloads/program_builder.hh"
#include "workloads/service.hh"
#include "workloads/suite.hh"

using namespace javelin;
using namespace javelin::workloads;

TEST(Suite, HasAllSixteenPaperBenchmarks)
{
    const auto &all = allBenchmarks();
    EXPECT_EQ(all.size(), 16u);
    EXPECT_EQ(suiteBenchmarks("SpecJVM98").size(), 7u);
    EXPECT_EQ(suiteBenchmarks("DaCapo").size(), 5u);
    EXPECT_EQ(suiteBenchmarks("JGF").size(), 4u);
}

TEST(Suite, LookupByName)
{
    EXPECT_EQ(benchmark("_213_javac").suite, "SpecJVM98");
    EXPECT_EQ(benchmark("fop").suite, "DaCapo");
    EXPECT_EQ(benchmark("euler").suite, "JGF");
    try {
        benchmark("nope");
        FAIL() << "unknown name was found";
    } catch (const std::invalid_argument &e) {
        EXPECT_STREQ(e.what(), "unknown benchmark: nope");
    }
}

TEST(Suite, EmbeddedSelectionMatchesPaper)
{
    const auto v = embeddedBenchmarks();
    ASSERT_EQ(v.size(), 5u);
    EXPECT_EQ(v[0].name, "_201_compress");
    EXPECT_EQ(v[3].name, "_213_javac");
    EXPECT_EQ(v[4].name, "_228_jack");
}

TEST(Builder, EveryProfileVerifies)
{
    // buildProgram panics on verification failure, so constructing all
    // 16 programs at both dataset scales is itself the assertion.
    for (const auto &profile : allBenchmarks()) {
        for (const auto ds : {DatasetScale::Full, DatasetScale::Small}) {
            BuildInfo info;
            const auto p =
                buildProgram(profile, studyScaleFor(ds), &info);
            EXPECT_GT(p.classes.size(),
                      profile.bootClasses + profile.appClasses);
            EXPECT_GT(p.methods.size(), profile.coldMethods);
            EXPECT_GT(info.iterations, 0u);
            EXPECT_GT(info.plannedAllocBytes, info.liveBytes);
            EXPECT_EQ(p.bootClassCount, profile.bootClasses);
        }
    }
}

TEST(Builder, DeterministicForSameSeed)
{
    const auto &profile = benchmark("_202_jess");
    const auto a =
        buildProgram(profile, studyScaleFor(DatasetScale::Small));
    const auto b =
        buildProgram(profile, studyScaleFor(DatasetScale::Small));
    ASSERT_EQ(a.methods.size(), b.methods.size());
    for (std::size_t m = 0; m < a.methods.size(); ++m) {
        ASSERT_EQ(a.methods[m].code.size(), b.methods[m].code.size());
        for (std::size_t i = 0; i < a.methods[m].code.size(); ++i) {
            EXPECT_EQ(a.methods[m].code[i].op, b.methods[m].code[i].op);
            EXPECT_EQ(a.methods[m].code[i].a, b.methods[m].code[i].a);
        }
    }
}

TEST(Builder, SmallDatasetShrinksWork)
{
    const auto &profile = benchmark("_209_db");
    BuildInfo full, small;
    buildProgram(profile, studyScaleFor(DatasetScale::Full), &full);
    buildProgram(profile, studyScaleFor(DatasetScale::Small), &small);
    EXPECT_LT(small.plannedAllocBytes, full.plannedAllocBytes / 4);
    EXPECT_LT(small.liveBytes, full.liveBytes / 4);
}

namespace {

jvm::RunResult
runScaled(const BenchmarkProfile &profile, DatasetScale ds,
          std::uint64_t heap_bytes,
          jvm::CollectorKind kind = jvm::CollectorKind::SemiSpace)
{
    const auto p = buildProgram(profile, studyScaleFor(ds));
    sim::System system(sim::p6Spec());
    jvm::JvmConfig cfg;
    cfg.collector = kind;
    cfg.heapBytes = heap_bytes;
    jvm::Jvm vm(system, p, cfg);
    return vm.run();
}

} // namespace

TEST(Builder, AllocationVolumeMatchesPlan)
{
    const auto &profile = benchmark("_202_jess");
    BuildInfo info;
    buildProgram(profile, studyScaleFor(DatasetScale::Small), &info);
    const auto r =
        runScaled(profile, DatasetScale::Small, 1 * kMiB);
    ASSERT_FALSE(r.outOfMemory);
    // Actual allocation within 40% of plan (object-size spread and
    // alignment make this approximate by design).
    EXPECT_GT(r.gc.bytesAllocated, info.plannedAllocBytes * 6 / 10);
    EXPECT_LT(r.gc.bytesAllocated, info.plannedAllocBytes * 16 / 10);
}

TEST(Builder, ChecksumInvariantAcrossCollectors)
{
    const auto &profile = benchmark("_227_mtrt");
    std::int64_t expected = 0;
    bool first = true;
    for (const auto kind :
         {jvm::CollectorKind::SemiSpace, jvm::CollectorKind::MarkSweep,
          jvm::CollectorKind::GenCopy, jvm::CollectorKind::GenMS,
          jvm::CollectorKind::IncrementalMS}) {
        const auto r =
            runScaled(profile, DatasetScale::Small, 2 * kMiB, kind);
        ASSERT_FALSE(r.outOfMemory) << collectorName(kind);
        if (first) {
            expected = r.returnValue;
            first = false;
        } else {
            EXPECT_EQ(r.returnValue, expected)
                << "collector " << collectorName(kind)
                << " changed program semantics";
        }
    }
}

TEST(Builder, DaCapoLiveSetTooBigForCopyingAt32MB)
{
    // The reason the paper reports DaCapo from 48 MB up (Section V).
    const auto &profile = benchmark("pmd");
    const auto scaled32 = static_cast<std::uint64_t>(32.0 * kMiB / 16);
    const auto scaled48 = static_cast<std::uint64_t>(48.0 * kMiB / 16);
    const auto r32 = runScaled(profile, DatasetScale::Full, scaled32,
                               jvm::CollectorKind::GenCopy);
    EXPECT_TRUE(r32.outOfMemory);
    const auto r48 = runScaled(profile, DatasetScale::Full, scaled48,
                               jvm::CollectorKind::GenCopy);
    EXPECT_FALSE(r48.outOfMemory);
}

TEST(Builder, SpecBenchmarksFitAt32MB)
{
    for (const auto &profile : suiteBenchmarks("SpecJVM98")) {
        const auto r = runScaled(profile, DatasetScale::Full,
                                 2 * kMiB, jvm::CollectorKind::GenCopy);
        EXPECT_FALSE(r.outOfMemory) << profile.name;
    }
}

TEST(Builder, GcPressureTracksAllocVolume)
{
    const auto low = runScaled(benchmark("_222_mpegaudio"),
                               DatasetScale::Full, 2 * kMiB);
    const auto high = runScaled(benchmark("_202_jess"),
                                DatasetScale::Full, 2 * kMiB);
    ASSERT_FALSE(low.outOfMemory);
    ASSERT_FALSE(high.outOfMemory);
    EXPECT_GT(high.gc.collections, low.gc.collections * 3);
}

TEST(Builder, ColdCallsLoadClassesOverTime)
{
    const auto &profile = benchmark("fop");
    const auto p =
        buildProgram(profile, studyScaleFor(DatasetScale::Small));
    sim::System system(sim::p6Spec());
    jvm::JvmConfig cfg;
    cfg.heapBytes = 2 * kMiB;
    jvm::Jvm vm(system, p, cfg);
    vm.run();
    // Well beyond the app classes: cold dispatch loaded cold classes.
    EXPECT_GT(vm.classLoader().classesLoaded(),
              profile.appClasses + profile.coldMethods / 4);
}

/**
 * 2000 requests/s over 200 cycles of 20 ms: every shape keeps the mean
 * rate. Bursty puts 3 x 0.25 = 75 % of its arrivals in the first
 * quarter of each cycle, Diurnal (1 + 0.8 * 2/pi) / 2 = 75.5 % in the
 * first half, and Poisson 25 % in the first quarter.
 */
TEST(Arrivals, ShapesFollowTheirCycle)
{
    constexpr double kRate = 2000.0;
    constexpr Tick kCycle = 20 * kTicksPerMilli;
    constexpr Tick kHorizon = 200 * kCycle;
    struct Shape
    {
        ArrivalKind kind;
        Tick window;
        double lo, hi;
    };
    for (const Shape &shape :
         {Shape{ArrivalKind::Poisson, kCycle / 4, 0.22, 0.28},
          Shape{ArrivalKind::Bursty, kCycle / 4, 0.72, 0.78},
          Shape{ArrivalKind::Diurnal, kCycle / 2, 0.72, 0.78}}) {
        ArrivalConfig cfg;
        cfg.kind = shape.kind;
        cfg.ratePerSec = kRate;
        ArrivalProcess arrivals(cfg, 1);
        double total = 0, inWindow = 0;
        for (Tick t = arrivals.next(); t < kHorizon; t = arrivals.next()) {
            ++total;
            inWindow += t % kCycle < shape.window;
        }
        const double expected = kRate * ticksToSeconds(kHorizon);
        const char *name = arrivalKindName(shape.kind);
        EXPECT_NEAR(total, expected, 0.03 * expected) << name;
        EXPECT_GE(inWindow / total, shape.lo) << name;
        EXPECT_LE(inWindow / total, shape.hi) << name;
    }
}
