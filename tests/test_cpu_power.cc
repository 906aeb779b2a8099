/**
 * @file
 * Tests for the CPU timing model, power models, thermal model and DVFS.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "sim/platform.hh"
#include "sim/system.hh"

using namespace javelin;
using sim::CpuModel;
using sim::MemoryHierarchy;
using sim::PerfCounters;
using sim::PowerModel;
using sim::System;
using sim::ThermalModel;

namespace {

sim::PlatformSpec
tinySpec()
{
    sim::PlatformSpec spec = sim::p6Spec();
    spec.memory.l1i.sizeBytes = 4 * kKiB;
    spec.memory.l1d.sizeBytes = 4 * kKiB;
    spec.memory.l2->sizeBytes = 64 * kKiB;
    return spec;
}

} // namespace

TEST(CpuModel, TimeAdvancesWithCycles)
{
    System sys(tinySpec());
    auto &cpu = sys.cpu();
    const Tick t0 = cpu.now();
    cpu.execute(1600, 0x1000, 64);
    // 1600 micro-ops at 0.45 CPI = 720 cycles = 450 ns at 1.6 GHz,
    // plus I-fetch penalty for one cold line.
    EXPECT_GT(cpu.now(), t0 + 400'000); // > 400 ns in ps
    EXPECT_LT(cpu.now(), t0 + 800'000);
    EXPECT_EQ(cpu.counters().instructions, 1600u);
}

TEST(CpuModel, LoadsRetireAsInstructions)
{
    System sys(tinySpec());
    auto &cpu = sys.cpu();
    cpu.load(0x100);
    cpu.store(0x100);
    cpu.branch(false);
    EXPECT_EQ(cpu.counters().instructions, 3u);
    EXPECT_EQ(cpu.counters().branches, 1u);
}

TEST(CpuModel, MispredictCostsCycles)
{
    System sys(tinySpec());
    auto &cpu = sys.cpu();
    cpu.branch(false);
    const auto c0 = cpu.counters().cycles;
    cpu.branch(true);
    EXPECT_GE(cpu.counters().cycles - c0,
              sys.spec().cpu.branchPenalty);
    EXPECT_EQ(cpu.counters().branchMispredicts, 1u);
}

TEST(CpuModel, FractionalStallsAccumulate)
{
    // Regression: chargePenalty/stall used to truncate fractional stall
    // cycles per event, so sub-cycle penalties (memStallFactor scaling,
    // FP-latency stalls) never reached the counter and stallCycles
    // drifted away from cycles on long runs. The accumulator must
    // floor the running sum, not each addend.
    System sys(tinySpec());
    auto &cpu = sys.cpu();
    for (int i = 0; i < 1000; ++i)
        cpu.stall(0.25);
    EXPECT_EQ(cpu.counters().stallCycles, 250u);
    // A stall-only workload burns cycles and stall cycles in lockstep:
    // both counters floor the same accumulated value.
    EXPECT_EQ(cpu.counters().cycles, cpu.counters().stallCycles);
}

TEST(CpuModel, StallCountersReconcileUnderMixedLoad)
{
    // Drive a mix of memory stalls (scaled by memStallFactor < 1 on the
    // P6), mispredicts and explicit fractional stalls, and check the
    // stall counter stays consistent with total cycle progress: stalls
    // can never exceed cycles, and must stay within one cycle of the
    // cycle progress not explained by retired micro-ops.
    System sys(tinySpec());
    auto &cpu = sys.cpu();
    for (int i = 0; i < 5000; ++i) {
        cpu.load(static_cast<sim::Address>(i) * 64);
        cpu.branch(i % 7 == 0);
        cpu.stall(0.125);
    }
    const auto &c = cpu.counters();
    EXPECT_LE(c.stallCycles, c.cycles);
    const double baseWork =
        static_cast<double>(c.instructions) * sys.spec().cpu.baseCpi;
    const double unexplained =
        static_cast<double>(c.cycles) - baseWork -
        static_cast<double>(c.stallCycles);
    EXPECT_NEAR(unexplained, 0.0, 2.0);
}

TEST(CpuModel, CacheMissStallsExposed)
{
    System sys(tinySpec());
    auto &cpu = sys.cpu();
    cpu.load(0x200000); // cold: L1+L2 miss
    const auto stalls = cpu.counters().stallCycles;
    EXPECT_GT(stalls, 50u); // 180 * 0.7 ish
    cpu.load(0x200000); // hot
    EXPECT_EQ(cpu.counters().stallCycles, stalls);
}

TEST(CpuModel, DutyCycleStretchesTime)
{
    System sysA(tinySpec()), sysB(tinySpec());
    sysB.cpu().setDutyCycle(0.5);
    sysA.cpu().execute(10000, 0x1000, 0);
    sysB.cpu().execute(10000, 0x1000, 0);
    EXPECT_NEAR(static_cast<double>(sysB.cpu().now()),
                2.0 * static_cast<double>(sysA.cpu().now()),
                static_cast<double>(sysA.cpu().now()) * 0.01);
}

TEST(CpuModel, FrequencyScalesTime)
{
    System sysA(tinySpec()), sysB(tinySpec());
    sysB.cpu().setFrequency(0.8e9);
    sysA.cpu().execute(10000, 0x1000, 0);
    sysB.cpu().execute(10000, 0x1000, 0);
    EXPECT_NEAR(static_cast<double>(sysB.cpu().now()),
                2.0 * static_cast<double>(sysA.cpu().now()),
                static_cast<double>(sysA.cpu().now()) * 0.01);
}

TEST(CpuModel, IdleAdvancesTimeNotCycles)
{
    System sys(tinySpec());
    auto &cpu = sys.cpu();
    const auto c0 = cpu.counters().cycles;
    cpu.idleFor(kTicksPerMilli);
    EXPECT_GE(cpu.now(), kTicksPerMilli);
    EXPECT_EQ(cpu.counters().cycles, c0);
}

TEST(PowerModel, IdleOnlyIntegration)
{
    PowerModel pm(sim::p6Spec().power);
    PerfCounters c;
    pm.update(c, kTicksPerSecond); // one second of nothing
    EXPECT_NEAR(pm.cumulativeJoules(), sim::p6Spec().power.idleWatts,
                1e-9);
}

TEST(PowerModel, DynamicEnergyAddsUp)
{
    const auto cfg = sim::p6Spec().power;
    PowerModel pm(cfg);
    PerfCounters c;
    c.instructions = 1'000'000;
    pm.update(c, kTicksPerMilli);
    const double expected =
        cfg.idleWatts * 1e-3 + cfg.epInstr * 1e6;
    EXPECT_NEAR(pm.cumulativeJoules(), expected, expected * 1e-9);
}

TEST(PowerModel, VoltageScalesQuadratically)
{
    auto cfg = sim::p6Spec().power;
    PowerModel a(cfg), b(cfg);
    b.setVoltage(cfg.nominalVolts / 2);
    PerfCounters c;
    c.instructions = 1'000'000;
    a.update(c, 0);
    b.update(c, 0);
    EXPECT_NEAR(b.cumulativeJoules(), a.cumulativeJoules() / 4, 1e-12);
}

TEST(PowerModel, WindowWatts)
{
    PowerModel pm(sim::p6Spec().power);
    PerfCounters c;
    pm.update(c, kTicksPerMilli);
    const double w = pm.windowWatts(0.0, 0, kTicksPerMilli);
    EXPECT_NEAR(w, sim::p6Spec().power.idleWatts, 1e-9);
}

TEST(PowerModel, TimeBackwardsPanics)
{
    PowerModel pm(sim::p6Spec().power);
    PerfCounters c;
    pm.update(c, 1000);
    EXPECT_DEATH(pm.update(c, 500), "backwards");
}

TEST(MemoryPowerModel, IdleAndAccessEnergy)
{
    const auto cfg = sim::p6Spec().memPower;
    sim::MemoryPowerModel mp(cfg);
    PerfCounters c;
    c.dramAccesses = 1000;
    mp.update(c, kTicksPerMilli);
    EXPECT_NEAR(mp.cumulativeJoules(),
                cfg.idleWatts * 1e-3 + cfg.epAccess * 1000, 1e-12);
}

TEST(Thermal, SteadyStateFanOn)
{
    ThermalModel tm(sim::p6Spec().thermal);
    // Fig. 1: ~12.5 W with the fan on settles near 60 C.
    for (int i = 0; i < 100000; ++i)
        tm.step(12.5, 0.01);
    EXPECT_NEAR(tm.temperatureC(), tm.steadyStateC(12.5), 0.5);
    EXPECT_NEAR(tm.temperatureC(), 60.0, 3.0);
    EXPECT_FALSE(tm.throttled());
}

TEST(Thermal, FanOffReaches99InAboutFourMinutes)
{
    ThermalModel tm(sim::p6Spec().thermal);
    // Warm up with the fan on first (Fig. 1 starts from steady state).
    for (int i = 0; i < 100000; ++i)
        tm.step(12.5, 0.01);
    tm.setFanEnabled(false);
    double t = 0;
    while (!tm.throttled() && t < 1000.0) {
        tm.step(12.5, 0.1);
        t += 0.1;
    }
    EXPECT_TRUE(tm.throttled());
    EXPECT_GT(t, 120.0);
    EXPECT_LT(t, 400.0); // paper: ~240 s
}

TEST(Thermal, ThrottleHysteresis)
{
    ThermalModel tm(sim::p6Spec().thermal);
    tm.setFanEnabled(false);
    while (!tm.throttled())
        tm.step(14.0, 1.0);
    EXPECT_DOUBLE_EQ(tm.requestedDuty(),
                     sim::p6Spec().thermal.throttleDuty);
    // Cooling below the off-threshold releases the throttle.
    while (tm.throttled())
        tm.step(0.0, 1.0);
    EXPECT_LT(tm.temperatureC(),
              sim::p6Spec().thermal.throttleOnC);
    EXPECT_DOUBLE_EQ(tm.requestedDuty(), 1.0);
}

/**
 * A step on which the throttle engages must charge throttledSeconds
 * only for the portion past the trip point, not the whole step: the
 * trajectory is a monotone exponential, so the crossing instant has a
 * closed form t* = tau ln((T0 - target)/(thr - target)) and the split
 * can be checked exactly.
 */
TEST(Thermal, EngageStepSplitsAtTripPointCrossing)
{
    const auto cfg = sim::p6Spec().thermal;
    ThermalModel tm(cfg);
    tm.setFanEnabled(false);

    // Heat to just below the on-threshold with short steps, then take
    // one long step that crosses it mid-way.
    const double watts = 14.0;
    while (tm.temperatureC() < cfg.throttleOnC - 1.0)
        tm.step(watts, 0.5);
    ASSERT_FALSE(tm.throttled());
    ASSERT_EQ(tm.throttledSeconds(), 0.0);

    const double t0 = tm.temperatureC();
    const double tau = cfg.rFanOffCperW * cfg.capacitanceJperC;
    const double target = cfg.ambientC + watts * cfg.rFanOffCperW;
    const double dt = 30.0;
    ASSERT_TRUE(tm.step(watts, dt)); // engages on this step
    ASSERT_TRUE(tm.throttled());

    const double tCross =
        tau * std::log((t0 - target) / (cfg.throttleOnC - target));
    ASSERT_GT(tCross, 0.0);
    ASSERT_LT(tCross, dt);
    EXPECT_NEAR(tm.throttledSeconds(), dt - tCross, 1e-12);
}

/** The disengage flip is split symmetrically at the off-threshold. */
TEST(Thermal, DisengageStepSplitsAtTripPointCrossing)
{
    const auto cfg = sim::p6Spec().thermal;
    ThermalModel tm(cfg);
    tm.setFanEnabled(false);
    while (!tm.throttled())
        tm.step(14.0, 1.0);
    const double engaged = tm.throttledSeconds();

    // One long cooling step that crosses the off-threshold mid-way:
    // only the time still above it is throttled.
    const double t0 = tm.temperatureC();
    ASSERT_GT(t0, cfg.throttleOffC);
    const double tau = cfg.rFanOffCperW * cfg.capacitanceJperC;
    const double target = cfg.ambientC; // zero watts
    const double dt = 200.0;
    ASSERT_TRUE(tm.step(0.0, dt)); // disengages on this step
    ASSERT_FALSE(tm.throttled());

    const double tCross =
        tau * std::log((t0 - target) / (cfg.throttleOffC - target));
    ASSERT_GT(tCross, 0.0);
    ASSERT_LT(tCross, dt);
    EXPECT_NEAR(tm.throttledSeconds(), engaged + tCross, 1e-12);
}

/** Steps fully inside one state charge whole-step (engaged) or none
 *  (released), unchanged by the boundary-splitting fix. */
TEST(Thermal, NonFlippingStepsChargeWholeOrNothing)
{
    const auto cfg = sim::p6Spec().thermal;
    ThermalModel tm(cfg);
    tm.setFanEnabled(false);
    while (!tm.throttled())
        tm.step(14.0, 1.0);
    const double engaged = tm.throttledSeconds();

    // Still above the off-threshold after a short hot step: the whole
    // step is throttled time.
    ASSERT_FALSE(tm.step(14.0, 0.25));
    ASSERT_TRUE(tm.throttled());
    EXPECT_NEAR(tm.throttledSeconds(), engaged + 0.25, 1e-12);
}

TEST(Thermal, StableForLargeSteps)
{
    ThermalModel tm(sim::p6Spec().thermal);
    tm.step(10.0, 1e6); // exact exponential: no oscillation
    EXPECT_NEAR(tm.temperatureC(), tm.steadyStateC(10.0), 1e-6);
}

TEST(System, ThermalThrottlingEngagesUnderLoad)
{
    auto spec = tinySpec();
    // Shrink the thermal mass so the trip happens within a short run.
    spec.thermal.capacitanceJperC = 0.0005;
    System sys(spec);
    sys.thermal().setFanEnabled(false);
    for (int i = 0; i < 2000; ++i) {
        sys.cpu().execute(4000, 0x1000, 256);
        sys.cpu().load(0x200000 + i * 64);
        sys.poll();
    }
    EXPECT_TRUE(sys.thermal().maxTemperatureC() > 95.0);
    EXPECT_LT(sys.cpu().dutyCycle(), 1.0);
}

TEST(Dvfs, OperatingPointChangesFrequencyAndVoltage)
{
    System sys(tinySpec());
    auto &dvfs = sys.dvfs();
    EXPECT_EQ(dvfs.currentIndex(), dvfs.numPoints() - 1);
    dvfs.set(0);
    EXPECT_DOUBLE_EQ(sys.cpu().frequency(), dvfs.point(0).freqHz);
    EXPECT_DOUBLE_EQ(sys.power().voltage(), dvfs.point(0).volts);
    dvfs.up();
    EXPECT_EQ(dvfs.currentIndex(), 1u);
    dvfs.down();
    dvfs.down(); // saturates at 0
    EXPECT_EQ(dvfs.currentIndex(), 0u);
}

TEST(Dvfs, LowerPointSavesEnergyOnFixedWork)
{
    System fast(tinySpec()), slow(tinySpec());
    slow.dvfs().set(0);
    for (int i = 0; i < 1000; ++i) {
        fast.cpu().execute(1000, 0x1000, 64);
        slow.cpu().execute(1000, 0x1000, 64);
    }
    EXPECT_LT(slow.cpuJoules(), fast.cpuJoules());
    EXPECT_GT(slow.cpu().now(), fast.cpu().now());
}

TEST(System, PeriodicTasksFire)
{
    System sys(tinySpec());
    int fired = 0;
    sys.addPeriodicTask("t", 10 * kTicksPerMicro,
                        [&](Tick) { ++fired; });
    while (sys.cpu().now() < 1000 * kTicksPerMicro) {
        sys.cpu().execute(100, 0x1000, 0);
        sys.poll();
    }
    EXPECT_GE(fired, 95);
    EXPECT_LE(fired, 105);
}

TEST(System, RemovedTaskStopsFiringOthersKeepOrder)
{
    System sys(tinySpec());
    std::string order;
    sys.addPeriodicTask("a", kTicksPerMilli, [&](Tick) { order += 'a'; });
    const auto b = sys.addPeriodicTask("b", kTicksPerMilli,
                                       [&](Tick) { order += 'b'; });
    sys.addPeriodicTask("c", kTicksPerMilli, [&](Tick) { order += 'c'; });
    sys.idleFor(kTicksPerMilli);
    sys.removePeriodicTask(b);
    sys.idleFor(kTicksPerMilli);
    EXPECT_EQ(order, "abcac");
}

TEST(System, IdleForFiresTasks)
{
    System sys(tinySpec());
    int fired = 0;
    sys.addPeriodicTask("t", kTicksPerMilli, [&](Tick) { ++fired; });
    sys.idleFor(10 * kTicksPerMilli);
    EXPECT_GE(fired, 9);
}

TEST(System, EnergyMonotonicallyIncreases)
{
    System sys(tinySpec());
    double last = 0;
    for (int i = 0; i < 100; ++i) {
        sys.cpu().execute(500, 0x1000, 64);
        const double j = sys.cpuJoules();
        EXPECT_GE(j, last);
        last = j;
    }
    EXPECT_GT(last, 0.0);
}
