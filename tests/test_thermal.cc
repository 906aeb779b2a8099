/**
 * @file
 * The thermal claims (EXPERIMENTS.md F1 and A3) and the invariants of
 * harness::runThermalStudy, at 150 equivalent paper seconds:
 *
 *  - F1: with the fan on, _222_mpegaudio peaks below the 99 C trip
 *    point and never throttles; with the fan off it trips near 120 s.
 *  - A3: on _202_jess a 95 C thermal-aware GC guard collects more,
 *    executes fewer bytecodes by the horizon, and spends less time
 *    throttled and less energy than the baseline.
 *  - Every total covers exactly [0, H]: a guard the die never reaches
 *    reproduces the baseline bit for bit, two identical calls agree,
 *    a shorter study's timeline is a prefix of a longer one's, and the
 *    throttled time agrees with the timeline.
 *
 * The studies run once, concurrently, and the tests read them.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "harness/experiment.hh"
#include "harness/sweep.hh"

using namespace javelin;
using namespace javelin::harness;

namespace {

constexpr double kHorizon = 150.0;
/** Equivalent paper seconds between timeline samples (500 us). */
constexpr double kSampleSeconds = 2.0;

enum Study
{
    FanOn,
    FanOff,
    JessBaseline,
    JessBaselineAgain,
    JessGuard95,
    JessGuard200,
    JessBaseline180,
    kNumStudies
};

const std::vector<ThermalStudyResult> &
studies()
{
    static const std::vector<ThermalStudyResult> results = [] {
        std::vector<ThermalStudyConfig> cfgs(kNumStudies);
        cfgs[FanOn].fanEnabled = true;
        for (int s = JessBaseline; s < kNumStudies; ++s)
            cfgs[s].benchmark = "_202_jess";
        cfgs[JessGuard95].guardC = 95.0;
        cfgs[JessGuard200].guardC = 200.0;
        for (auto &c : cfgs)
            c.horizonSeconds = kHorizon;
        cfgs[JessBaseline180].horizonSeconds = 180.0;
        std::vector<ThermalStudyResult> out(cfgs.size());
        SweepRunner::parallelFor(cfgs.size(), [&](std::size_t i) {
            out[i] = runThermalStudy(cfgs[i]);
        });
        return out;
    }();
    return results;
}

void
expectSameSample(const ThermalSample &a, const ThermalSample &b,
                 std::size_t i)
{
    EXPECT_EQ(a.seconds, b.seconds) << i;
    EXPECT_EQ(a.tempC, b.tempC) << i;
    EXPECT_EQ(a.duty, b.duty) << i;
    EXPECT_EQ(a.throttled, b.throttled) << i;
}

void
expectSameStudy(const ThermalStudyResult &a, const ThermalStudyResult &b)
{
    EXPECT_EQ(a.runs, b.runs);
    EXPECT_EQ(a.seconds, b.seconds);
    EXPECT_EQ(a.throttledSeconds, b.throttledSeconds);
    EXPECT_EQ(a.cpuJoules, b.cpuJoules);
    EXPECT_EQ(a.peakC, b.peakC);
    EXPECT_EQ(a.collections, b.collections);
    EXPECT_EQ(a.bytecodes, b.bytecodes);
    ASSERT_EQ(a.timeline.size(), b.timeline.size());
    for (std::size_t i = 0; i < a.timeline.size(); ++i)
        expectSameSample(a.timeline[i], b.timeline[i], i);
}

} // namespace

TEST(Thermal, FanOnNeverReachesTheTripPoint)
{
    const auto &r = studies()[FanOn];
    EXPECT_LT(r.peakC, 99.0);
    EXPECT_EQ(r.throttledSeconds, 0.0);
    for (const auto &s : r.timeline)
        ASSERT_EQ(s.duty, 1.0) << s.seconds;
}

TEST(Thermal, FanOffTripsNear120Seconds)
{
    const auto &r = studies()[FanOff];
    const auto trip =
        std::find_if(r.timeline.begin(), r.timeline.end(),
                     [](const ThermalSample &s) { return s.duty == 0.5; });
    ASSERT_NE(trip, r.timeline.end());
    EXPECT_GE(trip->seconds, 110.0);
    EXPECT_LE(trip->seconds, 130.0);
    EXPECT_GT(r.throttledSeconds, 0.0);
    EXPECT_GE(r.peakC, 99.0);
}

TEST(Thermal, GuardTradesWorkForLessThrottlingAndEnergy)
{
    const auto &base = studies()[JessBaseline];
    const auto &guard = studies()[JessGuard95];
    EXPECT_GT(guard.collections, base.collections);
    EXPECT_LT(guard.bytecodes, base.bytecodes);
    EXPECT_GT(base.throttledSeconds, 0.0);
    EXPECT_LT(guard.throttledSeconds, base.throttledSeconds);
    EXPECT_LT(guard.cpuJoules, base.cpuJoules);
}

TEST(Thermal, UnreachedGuardReproducesTheBaseline)
{
    expectSameStudy(studies()[JessGuard200], studies()[JessBaseline]);
}

TEST(Thermal, IdenticalCallsAgree)
{
    expectSameStudy(studies()[JessBaselineAgain], studies()[JessBaseline]);
}

TEST(Thermal, TimelineEndsAtTheHorizon)
{
    for (const auto &r : studies()) {
        ASSERT_FALSE(r.timeline.empty());
        EXPECT_LE(r.timeline.back().seconds, r.seconds);
        EXPECT_GT(r.timeline.back().seconds, r.seconds - kSampleSeconds);
    }
    EXPECT_NEAR(studies()[FanOff].seconds, kHorizon, 1e-6);
    EXPECT_NEAR(studies()[JessBaseline180].seconds, 180.0, 1e-6);
}

TEST(Thermal, ShorterStudyIsAPrefixOfALongerOne)
{
    const auto &shorter = studies()[JessBaseline];
    const auto &longer = studies()[JessBaseline180];
    ASSERT_LT(shorter.timeline.size(), longer.timeline.size());
    for (std::size_t i = 0; i < shorter.timeline.size(); ++i)
        expectSameSample(shorter.timeline[i], longer.timeline[i], i);
    EXPECT_LT(shorter.bytecodes, longer.bytecodes);
    EXPECT_LE(shorter.throttledSeconds, longer.throttledSeconds);
}

/**
 * The totals cover the same span as the timeline: the throttled time
 * equals the throttled samples' share, within one sample per throttle
 * transition. Totals read at the end of the last run instead of at H
 * add that run's tail past the horizon and break this.
 */
TEST(Thermal, ThrottledTimeMatchesTheTimeline)
{
    for (const auto &r : studies()) {
        std::size_t throttled = 0, transitions = 0;
        for (std::size_t i = 0; i < r.timeline.size(); ++i) {
            throttled += r.timeline[i].throttled;
            transitions += i > 0 && r.timeline[i].throttled !=
                                        r.timeline[i - 1].throttled;
        }
        EXPECT_NEAR(r.throttledSeconds,
                    static_cast<double>(throttled) * kSampleSeconds,
                    static_cast<double>(transitions + 1) * kSampleSeconds);
        double maxC = 0.0;
        for (const auto &s : r.timeline)
            maxC = std::max(maxC, s.tempC);
        EXPECT_GE(r.peakC, maxC);
        EXPECT_LT(r.peakC, maxC + 0.5);
    }
}
