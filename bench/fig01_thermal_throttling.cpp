/**
 * @file
 * Reproduces paper Fig. 1: processor temperature under repetitive runs
 * of _222_mpegaudio on Jikes RVM (GenCopy), with the fan enabled and
 * disabled. With the fan on, the temperature settles near 60 C; with
 * the fan off it climbs to the 99 C trip point (about 240 s on the real
 * board), where the emergency response halves the clock duty cycle and
 * the temperature saw-tooths around the threshold.
 *
 * The study scale shortens runs by ~16x, so the thermal time constant
 * is shortened by the same factor (tau scales with R*C; we scale C) and
 * the time axis below is reported in equivalent paper seconds.
 */

#include <iostream>

#include "core/daq.hh"
#include "harness/experiment.hh"
#include "util/table.hh"

using namespace javelin;
using namespace javelin::harness;

namespace {

/** Thermal time dilation: simulated seconds -> paper seconds. */
constexpr double kThermalScale = 4000.0;

struct TracePoint
{
    double paperSeconds;
    double tempC;
    double duty;
};

std::vector<TracePoint>
runScenario(bool fan_enabled, double paper_seconds)
{
    auto spec = scaledPlatformSpec(ExperimentConfig{});
    spec.thermal.capacitanceJperC /= kThermalScale;

    const auto program = workloads::buildProgram(
        workloads::benchmark("_222_mpegaudio"),
        workloads::studyScaleFor(workloads::DatasetScale::Small));

    sim::System system(spec);
    system.thermal().setFanEnabled(fan_enabled);

    std::vector<TracePoint> trace;
    system.addPeriodicTask(500 * kTicksPerMicro, [&](Tick now) {
        trace.push_back({ticksToSeconds(now) * kThermalScale,
                         system.thermal().temperatureC(),
                         system.cpu().dutyCycle()});
    });

    jvm::JvmConfig cfg;
    cfg.collector = jvm::CollectorKind::GenCopy;
    cfg.heapBytes = scaledHeapBytes(ExperimentConfig{});

    const double horizon = paper_seconds / kThermalScale;
    // Repetitive runs of the benchmark, as in the paper.
    while (ticksToSeconds(system.cpu().now()) < horizon) {
        jvm::Jvm vm(system, program, cfg);
        const auto r = vm.run();
        if (r.outOfMemory)
            break;
    }
    return trace;
}

} // namespace

int
main()
{
    std::cout << "=== Fig. 1: Pentium M temperature, repetitive "
                 "_222_mpegaudio, Jikes RVM + GenCopy ===\n"
              << "(time axis in equivalent paper seconds; thermal mass "
                 "scaled with the study scale)\n\n";

    const auto fanOn = runScenario(true, 300.0);
    const auto fanOff = runScenario(false, 300.0);

    Table t({"t(s)", "fan-on T(C)", "fan-off T(C)", "fan-off duty"});
    const std::size_t n = std::min(fanOn.size(), fanOff.size());
    for (std::size_t i = 0; i < n; i += std::max<std::size_t>(1, n / 25)) {
        t.beginRow();
        t.cell(fanOn[i].paperSeconds, 0);
        t.cell(fanOn[i].tempC, 1);
        t.cell(fanOff[i].tempC, 1);
        t.cell(fanOff[i].duty, 2);
    }
    t.print(std::cout);

    double fanOnMax = 0, fanOffMax = 0, tripAt = -1;
    for (const auto &p : fanOn)
        fanOnMax = std::max(fanOnMax, p.tempC);
    for (const auto &p : fanOff) {
        fanOffMax = std::max(fanOffMax, p.tempC);
        if (tripAt < 0 && p.duty < 1.0)
            tripAt = p.paperSeconds;
    }
    std::cout << "\nsummary (paper expectations in parentheses):\n"
              << "  fan-on peak temperature " << fanOnMax
              << " C  (~60 C steady)\n"
              << "  fan-off peak temperature " << fanOffMax
              << " C  (clips at 99 C)\n"
              << "  throttle engaged at t=" << tripAt
              << " s equivalent  (~240 s), duty 0.50\n";
    return 0;
}
