/**
 * @file
 * Regression tests for two DAQ energy-integration bugs:
 *
 *  1. Samples used to be weighted by the nominal DAQ period when
 *     integrating energy, but a sample taken after the simulation
 *     polled late covers the whole gap and the catch-up samples behind
 *     it cover no time at all. Measured totals now integrate each
 *     sample over its actual window (PowerSample::windowTicks) and must
 *     reconcile with the power model / ground-truth accountant even on
 *     bursty workloads; the old period-weighted sum must not.
 *
 *  2. A Daq attached to a warm system used to leave its energy
 *     baseline at zero and attribute everything consumed before attach
 *     to the first sample window. The constructor now snapshots the
 *     cumulative energy counters.
 *
 *  3. The measured-energy integrals accumulated naively left-to-right
 *     in a plain double, so long traces with a large dynamic range
 *     drifted: once the running sum dwarfs a sample's contribution,
 *     every add sheds low-order bits in the same direction. The
 *     integrals now use compensated (Neumaier) summation
 *     (core::integrateCpuJoules / util/kahan.hh).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/attribution.hh"
#include "core/component_port.hh"
#include "core/daq.hh"
#include "sim/platform.hh"

using namespace javelin;
using core::ComponentId;
using core::ComponentPort;
using core::Daq;
using sim::System;

namespace {

sim::PlatformSpec
testSpec()
{
    auto spec = sim::p6Spec();
    spec.memory.l1i.sizeBytes = 4 * kKiB;
    spec.memory.l1d.sizeBytes = 4 * kKiB;
    spec.memory.l2->sizeBytes = 64 * kKiB;
    return spec;
}

/** Advance busy execution to `target` without polling the DAQ. */
void
burnWithoutPolling(System &sys, Tick target)
{
    while (sys.cpu().now() < target)
        sys.cpu().execute(50, 0x1000, 64);
}

} // namespace

TEST(DaqFixes, BurstyWindowsReconcileButPeriodWeightingDoesNot)
{
    System sys(testSpec());
    ComponentPort port(sys);
    Daq daq(sys, port);
    const Tick p = daq.period();

    // Alternate high-power bursts that overrun the sampling period
    // (polled only at the end, so the DAQ fires a catch-up burst) with
    // low-power idle stretches sampled on time. Power then correlates
    // with window length, which is exactly where period-weighted
    // integration goes wrong.
    for (int i = 0; i < 40; ++i) {
        burnWithoutPolling(sys, sys.cpu().now() + 5 * p / 2);
        sys.poll();
        sys.idleFor(5 * p / 2);
    }
    sys.syncPower();

    std::size_t catchUps = 0;
    std::size_t longWindows = 0;
    for (const auto &s : daq.trace()) {
        catchUps += s.windowTicks == 0;
        longWindows += s.windowTicks > p;
    }
    ASSERT_GT(catchUps, 0u);
    ASSERT_GT(longWindows, 0u);

    const double model = sys.cpuJoules();
    const double measured = daq.measuredCpuJoules();
    EXPECT_NEAR(measured, model, model * 0.02);
    EXPECT_NEAR(daq.measuredMemJoules(), sys.memoryJoules(),
                sys.memoryJoules() * 0.03);

    // The pre-fix integral: every sample weighted by the nominal
    // period. On this workload it misses by far more than the
    // reconciliation tolerance above.
    double naive = 0.0;
    for (const auto &s : daq.trace())
        naive += s.cpuWatts * ticksToSeconds(p);
    EXPECT_GT(std::abs(naive - model), model * 0.05);
}

TEST(DaqFixes, AttributionIntegratesActualWindows)
{
    System sys(testSpec());
    ComponentPort port(sys);
    Daq daq(sys, port);
    const Tick p = daq.period();

    for (int i = 0; i < 40; ++i) {
        burnWithoutPolling(sys, sys.cpu().now() + 5 * p / 2);
        sys.poll();
        sys.idleFor(5 * p / 2);
    }
    sys.syncPower();

    // attribute() must agree with the DAQ's own integral (same trace,
    // same actual-window weighting).
    const auto a = core::attribute(daq.trace(), {});
    EXPECT_NEAR(a.totalCpuJoules, daq.measuredCpuJoules(), 1e-9);
    EXPECT_NEAR(a.totalCpuJoules, sys.cpuJoules(),
                sys.cpuJoules() * 0.02);
    // Catch-up samples add trace shape but no seconds.
    Tick covered = 0;
    for (const auto &s : daq.trace())
        covered += s.windowTicks;
    EXPECT_NEAR(a.totalSeconds, ticksToSeconds(covered), 1e-12);
}

/**
 * Long-trace drift regression for the compensated integrals. One huge
 * sample (a pathological sense-channel glitch) pushes the running sum
 * far above the per-sample contributions, then a million ordinary
 * samples follow. Naive double accumulation then rounds every add in
 * the same direction and drifts; the compensated integral must stay
 * within a few ulps of the analytic total (which has a closed form
 * here precisely because every small term is the same double — even an
 * 80-bit accumulator drifts too much at this length to serve as the
 * oracle).
 */
TEST(DaqFixes, LongTraceIntegrationDoesNotDrift)
{
    const Tick w = 40 * kTicksPerMicro;
    core::PowerTrace trace;
    trace.reserve(1'000'001);
    trace.push_back({0, 2.5e8, 2.5e8, w, core::ComponentId::App});
    for (int i = 0; i < 1'000'000; ++i)
        trace.push_back(
            {Tick(i + 1) * w, 1e-3, 1e-3, w, core::ComponentId::App});

    double naive = 0.0;
    for (const auto &s : trace)
        naive += s.cpuWatts * ticksToSeconds(s.windowTicks);

    // Exact real-number sum of the double-valued terms, rounded twice:
    // big term + (identical small term scaled by the exact count).
    const double dt = ticksToSeconds(w);
    const double refD = 2.5e8 * dt + 1e6 * (1e-3 * dt);

    const double compensated = core::integrateCpuJoules(trace);
    EXPECT_EQ(core::integrateMemJoules(trace), compensated);

    const double compErr = std::abs(compensated - refD);
    const double naiveErr = std::abs(naive - refD);
    // ~1e4 J total: one ulp is ~1.8e-12 J. Compensated must be at
    // ulp scale; the naive loop drifts orders of magnitude past it.
    EXPECT_LT(compErr, 1e-11);
    EXPECT_GT(naiveErr, 1e-8);
    EXPECT_GT(naiveErr, 100.0 * std::max(compErr, 1e-13));
}

/**
 * Regression for the final-partial-window truncation: a run that ends
 * between sampling instants used to lose the in-progress window —
 * energy consumed after the last periodic sample never entered the
 * measured totals, so on ms-scale runs measured joules undercounted
 * the integrated energy by up to one window. Daq::stop() flushes the
 * partial window through the ordinary sample path; after it, measured
 * totals must reconcile with the power model at Neumaier epsilon, not
 * at percent scale.
 */
TEST(DaqFixes, StopFlushesFinalPartialWindow)
{
    System sys(testSpec());
    ComponentPort port(sys);
    Daq daq(sys, port);
    const Tick p = daq.period();

    // 20 on-schedule windows, then stop ~60% into the next one.
    while (sys.cpu().now() < 20 * p) {
        sys.cpu().execute(50, 0x1000, 64);
        sys.poll();
    }
    burnWithoutPolling(sys, sys.cpu().now() + (3 * p) / 5);
    sys.syncPower();
    const double model = sys.cpuJoules();
    const double modelMem = sys.memoryJoules();

    // Without the flush the in-progress window is simply dropped: the
    // truncated totals are visibly short of the integrated energy.
    const double truncated = daq.measuredCpuJoules();
    EXPECT_LT(truncated, model * 0.995);

    const auto samplesBefore = daq.trace().size();
    daq.stop();
    EXPECT_EQ(daq.trace().size(), samplesBefore + 1);
    EXPECT_NEAR(daq.measuredCpuJoules(), model, model * 1e-9);
    EXPECT_NEAR(daq.measuredMemJoules(), modelMem, modelMem * 1e-9);

    // Idempotent, and periodic firings after stop() are ignored: more
    // simulated time must not grow the trace or the totals.
    daq.stop();
    const double stopped = daq.measuredCpuJoules();
    sys.idleFor(5 * p);
    EXPECT_EQ(daq.trace().size(), samplesBefore + 1);
    EXPECT_EQ(daq.measuredCpuJoules(), stopped);
}

/** A stop landing exactly on a sample boundary has nothing to flush. */
TEST(DaqFixes, StopOnBoundaryFlushesNothing)
{
    System sys(testSpec());
    ComponentPort port(sys);
    Daq daq(sys, port);
    const Tick p = daq.period();

    while (sys.cpu().now() < 4 * p) {
        sys.cpu().execute(50, 0x1000, 64);
        sys.poll();
    }
    // Land exactly on the next boundary and let the periodic sample
    // fire there.
    sys.idleFor(5 * p - sys.cpu().now());
    const auto samplesBefore = daq.trace().size();
    daq.stop();
    EXPECT_EQ(daq.trace().size(), samplesBefore);
    EXPECT_TRUE(daq.stopped());
}

TEST(DaqFixes, WarmAttachMeasuresOnlyPostAttachEnergy)
{
    System sys(testSpec());
    ComponentPort port(sys);

    // Burn a substantial amount of energy before the DAQ exists.
    while (sys.cpu().now() < 5 * kTicksPerMilli) {
        sys.cpu().execute(300, 0x1000, 64);
        sys.poll();
    }
    sys.syncPower();
    const double preAttachJ = sys.cpuJoules();
    const double preAttachMemJ = sys.memoryJoules();
    ASSERT_GT(preAttachJ, 0.0);

    Daq daq(sys, port);
    while (sys.cpu().now() < 10 * kTicksPerMilli) {
        sys.cpu().execute(300, 0x1000, 64);
        sys.poll();
    }
    sys.syncPower();

    const double postAttachJ = sys.cpuJoules() - preAttachJ;
    const double postAttachMemJ = sys.memoryJoules() - preAttachMemJ;
    EXPECT_NEAR(daq.measuredCpuJoules(), postAttachJ,
                postAttachJ * 0.03);
    EXPECT_NEAR(daq.measuredMemJoules(), postAttachMemJ,
                postAttachMemJ * 0.03);
    // The pre-fix behaviour folded the entire pre-attach energy into
    // the first window; make sure nothing like that survives.
    EXPECT_LT(daq.measuredCpuJoules(), sys.cpuJoules() * 0.7);
}
