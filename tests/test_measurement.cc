/**
 * @file
 * Tests for the measurement infrastructure: component port, sense
 * resistors, DAQ, HPM sampler, ground-truth accountant, attribution and
 * energy accounting.
 */

#include <gtest/gtest.h>

#include <array>
#include <memory>

#include "core/attribution.hh"
#include "core/component_port.hh"
#include "core/daq.hh"
#include "core/energy_accounting.hh"
#include "core/ground_truth.hh"
#include "core/hpm_sampler.hh"
#include "core/sense_resistor.hh"
#include "harness/tenant_set.hh"
#include "sim/platform.hh"

using namespace javelin;
using core::ComponentId;
using core::ComponentPort;
using core::Daq;
using core::SenseResistor;
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

void
burn(System &sys, std::uint32_t uops)
{
    sys.cpu().execute(uops, 0x1000, 64);
    sys.poll();
}

} // namespace

TEST(ComponentPort, PushPopRestores)
{
    System sys(testSpec());
    ComponentPort port(sys);
    EXPECT_EQ(port.current(), ComponentId::App);
    port.push(ComponentId::Gc);
    EXPECT_EQ(port.current(), ComponentId::Gc);
    port.push(ComponentId::ClassLoader);
    EXPECT_EQ(port.current(), ComponentId::ClassLoader);
    port.pop();
    EXPECT_EQ(port.current(), ComponentId::Gc);
    port.pop();
    EXPECT_EQ(port.current(), ComponentId::App);
}

TEST(ComponentPort, PopWithoutPushPanics)
{
    System sys(testSpec());
    ComponentPort port(sys);
    EXPECT_DEATH(port.pop(), "pop without push");
}

TEST(ComponentPort, RawWriteClearsStack)
{
    System sys(testSpec());
    ComponentPort port(sys);
    port.push(ComponentId::Gc);
    port.rawWrite(ComponentId::OptCompiler);
    EXPECT_EQ(port.current(), ComponentId::OptCompiler);
    EXPECT_EQ(port.depth(), 0u);
}

TEST(ComponentPort, ObserversSeeSwitches)
{
    System sys(testSpec());
    ComponentPort port(sys);
    std::vector<std::pair<ComponentId, ComponentId>> seen;
    port.addObserver([&](ComponentId a, ComponentId b, Tick) {
        seen.emplace_back(a, b);
    });
    port.push(ComponentId::Gc);
    port.push(ComponentId::Gc); // no change, no callback
    port.pop();
    port.pop();
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0].first, ComponentId::App);
    EXPECT_EQ(seen[0].second, ComponentId::Gc);
    EXPECT_EQ(seen[1].second, ComponentId::App);
}

TEST(ComponentPort, WriteCostCharged)
{
    System sys(testSpec());
    ComponentPort charged(sys, {true});
    const auto c0 = sys.cpu().counters().cycles;
    charged.push(ComponentId::Gc);
    EXPECT_GE(sys.cpu().counters().cycles - c0, 2u);

    ComponentPort free(sys, {false});
    const auto c1 = sys.cpu().counters().cycles;
    free.push(ComponentId::Gc);
    EXPECT_EQ(sys.cpu().counters().cycles, c1);
}

TEST(ComponentScope, RaiiBracket)
{
    System sys(testSpec());
    ComponentPort port(sys);
    {
        core::ComponentScope scope(port, ComponentId::Jit);
        EXPECT_EQ(port.current(), ComponentId::Jit);
    }
    EXPECT_EQ(port.current(), ComponentId::App);
}

TEST(Component, NamesAndClassification)
{
    EXPECT_EQ(core::componentName(ComponentId::Gc), "GC");
    EXPECT_EQ(core::componentName(ComponentId::App), "App");
    EXPECT_TRUE(core::isJvmServiceComponent(ComponentId::Gc));
    EXPECT_TRUE(core::isJvmServiceComponent(ComponentId::Jit));
    EXPECT_FALSE(core::isJvmServiceComponent(ComponentId::App));
    EXPECT_FALSE(core::isJvmServiceComponent(ComponentId::Idle));
}

TEST(SenseResistor, ExactWithoutNoise)
{
    SenseResistor sr({0.0, 1});
    EXPECT_NEAR(sr.measureAmps(14.84, 1.484), 10.0, 1e-12);
    EXPECT_NEAR(sr.measureWatts(12.0, 1.484), 12.0, 1e-12);
}

TEST(SenseResistor, NoiseIsZeroMean)
{
    SenseResistor::Config cfg;
    cfg.noiseVoltsRms = 0.001;
    SenseResistor sr(cfg);
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += sr.measureWatts(12.0, 1.5);
    EXPECT_NEAR(sum / n, 12.0, 0.05);
}

TEST(Daq, SamplesAtConfiguredPeriod)
{
    System sys(testSpec());
    ComponentPort port(sys);
    Daq daq(sys, port);
    ASSERT_EQ(daq.period(), 40 * kTicksPerMicro);
    while (sys.cpu().now() < 4 * kTicksPerMilli)
        burn(sys, 200);
    EXPECT_NEAR(static_cast<double>(daq.trace().size()), 100.0, 3.0);
}

TEST(Daq, MeasuredEnergyMatchesModel)
{
    System sys(testSpec());
    ComponentPort port(sys);
    Daq daq(sys, port);
    while (sys.cpu().now() < 10 * kTicksPerMilli)
        burn(sys, 500);
    const double model = sys.cpuJoules();
    const double measured = daq.measuredCpuJoules();
    // The last partial window is unsampled; allow a small gap.
    EXPECT_NEAR(measured, model, model * 0.02);
    EXPECT_NEAR(daq.measuredMemJoules(), sys.memoryJoules(),
                sys.memoryJoules() * 0.03);
}

TEST(Daq, SamplesCarryComponentId)
{
    System sys(testSpec());
    ComponentPort port(sys);
    Daq daq(sys, port);
    burn(sys, 100);
    port.push(ComponentId::Gc);
    while (sys.cpu().now() < 2 * kTicksPerMilli)
        burn(sys, 200);
    port.pop();
    int gcSamples = 0;
    for (const auto &s : daq.trace())
        gcSamples += s.component == ComponentId::Gc;
    EXPECT_GT(gcSamples, 40);
}

TEST(HpmSampler, DeltasSumToTotals)
{
    auto spec = testSpec();
    spec.hpmPeriod = 100 * kTicksPerMicro;
    System sys(spec);
    ComponentPort port(sys);
    burn(sys, 300); // attach to a warm system
    const sim::PerfCounters atAttach = sys.counters();
    core::HpmSampler hpm(sys, port);
    while (sys.cpu().now() < 5037 * kTicksPerMicro)
        burn(sys, 300);
    // Stop mid-window: stop() must flush the partial window as one
    // more sample, so the samples cover every counter delta since
    // attach, exactly.
    const std::size_t periodic = hpm.trace().size();
    hpm.stop();
    ASSERT_EQ(hpm.trace().size(), periodic + 1);
    sim::PerfCounters sum;
    for (const auto &s : hpm.trace())
        sum += s.delta;
    const sim::PerfCounters want = sys.counters() - atAttach;
#define EXPECT_FIELD_EQ(f) EXPECT_EQ(sum.f, want.f) << #f
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

TEST(GroundTruth, SplitsEnergyBetweenComponents)
{
    System sys(testSpec());
    ComponentPort port(sys);
    core::GroundTruthAccountant truth(sys, port);

    while (sys.cpu().now() < kTicksPerMilli)
        burn(sys, 300);
    port.push(ComponentId::Gc);
    while (sys.cpu().now() < 2 * kTicksPerMilli)
        burn(sys, 300);
    port.pop();
    truth.finalize();

    const auto &app = truth.slice(ComponentId::App);
    const auto &gc = truth.slice(ComponentId::Gc);
    EXPECT_GT(app.cpuJoules, 0.0);
    EXPECT_GT(gc.cpuJoules, 0.0);
    EXPECT_NEAR(truth.totalCpuJoules(), sys.cpuJoules(), 1e-9);
    EXPECT_NEAR(ticksToSeconds(truth.totalTime()),
                ticksToSeconds(sys.cpu().now()), 1e-9);
    // Components ran for about the same time at the same activity.
    EXPECT_NEAR(gc.cpuJoules, app.cpuJoules, app.cpuJoules * 0.1);
}

/**
 * Every instrument registers a callback that captures it. Destroying
 * the instrument must unregister that callback while the System and
 * the port run on; a leftover registration fires into freed memory.
 */
TEST(Instruments, DestroyedInstrumentsUnregister)
{
    System sys(testSpec());
    ComponentPort port(sys);
    auto daq = std::make_unique<Daq>(sys, port);
    auto hpm = std::make_unique<core::HpmSampler>(sys, port);
    auto truth = std::make_unique<core::GroundTruthAccountant>(sys, port);
    auto set = std::make_unique<harness::TenantSet>(sys, port);
    daq.reset();
    hpm.reset();
    truth.reset();
    set.reset();
    // Only the System's own thermal task (200 us on the P6) is left.
    EXPECT_EQ(sys.nextTaskDue(), sys.spec().thermalPeriod);
    sys.idleFor(5 * kTicksPerMilli);
    port.push(ComponentId::Gc);
    port.pop();
    EXPECT_EQ(port.current(), ComponentId::App);
}

TEST(Attribution, SampledMatchesGroundTruthOnLongPhases)
{
    System sys(testSpec());
    ComponentPort port(sys);
    Daq daq(sys, port);
    core::GroundTruthAccountant truth(sys, port);

    // Two long phases: attribution error should be tiny.
    while (sys.cpu().now() < 10 * kTicksPerMilli)
        burn(sys, 300);
    port.push(ComponentId::Gc);
    while (sys.cpu().now() < 20 * kTicksPerMilli)
        burn(sys, 300);
    port.pop();
    truth.finalize();

    const auto a = core::attribute(daq.trace(), {});
    const double gcTruth = truth.slice(ComponentId::Gc).cpuJoules;
    const double gcSampled = a.powerOf(ComponentId::Gc).cpuJoules;
    EXPECT_NEAR(gcSampled, gcTruth, gcTruth * 0.02);
    EXPECT_NEAR(a.totalCpuJoules, truth.totalCpuJoules(),
                truth.totalCpuJoules() * 0.02);
}

TEST(Attribution, FractionsSumToOne)
{
    System sys(testSpec());
    ComponentPort port(sys);
    Daq daq(sys, port);
    for (int phase = 0; phase < 6; ++phase) {
        port.push(static_cast<ComponentId>(phase % 4));
        while (sys.cpu().now() <
               static_cast<Tick>(phase + 1) * kTicksPerMilli)
            burn(sys, 250);
        port.pop();
    }
    const auto a = core::attribute(daq.trace(), {});
    double total = 0;
    for (std::size_t i = 0; i < core::kNumComponents; ++i)
        total += a.energyFraction(static_cast<ComponentId>(i));
    EXPECT_NEAR(total, 1.0, 1e-9);
    EXPECT_GE(a.peakCpuWatts, a.totalCpuJoules / a.totalSeconds);
}

TEST(Attribution, PerfSamplesCountEachComponentsRecords)
{
    auto spec = testSpec();
    spec.hpmPeriod = 100 * kTicksPerMicro;
    System sys(spec);
    ComponentPort port(sys);
    core::HpmSampler hpm(sys, port);
    // Phases of unequal length, so every component's count differs.
    for (int phase = 0; phase < 6; ++phase) {
        port.push(static_cast<ComponentId>(phase % 4));
        const Tick end = sys.cpu().now() +
                         static_cast<Tick>(phase + 1) * kTicksPerMilli / 2;
        while (sys.cpu().now() < end)
            burn(sys, 250);
        port.pop();
    }
    hpm.stop();

    std::array<std::uint64_t, core::kNumComponents> want{};
    for (const auto &s : hpm.trace())
        ++want[core::componentIndex(s.component)];
    const auto a = core::attribute({}, hpm.trace());
    std::uint64_t total = 0;
    std::size_t seen = 0;
    for (std::size_t i = 0; i < core::kNumComponents; ++i) {
        EXPECT_EQ(a.perf[i].samples, want[i]) << i;
        total += a.perf[i].samples;
        seen += want[i] > 0;
    }
    EXPECT_EQ(total, hpm.trace().size());
    EXPECT_EQ(seen, 4u);
}

TEST(Attribution, JvmFractionExcludesApp)
{
    core::PowerTrace trace;
    for (int i = 0; i < 10; ++i) {
        core::PowerSample s;
        s.tick = static_cast<Tick>(i) * 40 * kTicksPerMicro;
        s.windowTicks = 40 * kTicksPerMicro;
        s.cpuWatts = 10.0;
        s.component = i < 6 ? ComponentId::App : ComponentId::Gc;
        trace.push_back(s);
    }
    const auto a = core::attribute(trace, {});
    EXPECT_NEAR(a.jvmEnergyFraction(), 0.4, 1e-9);
    EXPECT_NEAR(a.energyFraction(ComponentId::App), 0.6, 1e-9);
}

TEST(EnergyAccounting, EdpDefinition)
{
    EXPECT_DOUBLE_EQ(core::energyDelayProduct(2.0, 3.0), 6.0);
    EXPECT_NEAR(core::relativeImprovement(10.0, 3.0), 0.7, 1e-12);
    EXPECT_DOUBLE_EQ(core::relativeImprovement(0.0, 3.0), 0.0);
}

TEST(EnergyAccounting, EdpOfAttribution)
{
    core::Attribution a;
    a.totalCpuJoules = 2.0;
    a.totalMemJoules = 0.5;
    a.totalSeconds = 4.0;
    EXPECT_DOUBLE_EQ(core::edpOf(a), 10.0);
    EXPECT_DOUBLE_EQ(core::cpuEdpOf(a), 8.0);
}
