/**
 * @file
 * Example: the fan-failure scenario of paper Fig. 1, driven through the
 * public API — run a workload in a loop, watch the die temperature, and
 * observe the emergency 50%-duty throttle engage, with and without the
 * thermal-aware GC policy of Section VI-C. The two scenarios simulate
 * independent systems, so they run concurrently on the sweep pool and
 * their buffered timelines print side by side afterwards.
 *
 * Usage: thermal_study [benchmark] [paper-seconds]
 */

#include <cmath>
#include <iostream>
#include <sstream>
#include <string>

#include "harness/experiment.hh"
#include "harness/sweep.hh"

using namespace javelin;
using namespace javelin::harness;

namespace {

// Time-dilate the thermal mass so minutes of board time fit in
// milliseconds of simulated time (see bench/fig01 for details).
constexpr double kThermalScale = 4000.0;

struct ScenarioReport
{
    std::string timeline;
    int runs = 0;
    double peakC = 0.0;
    double throttledPaperSeconds = 0.0;
    double joulesEquivalent = 0.0;
};

ScenarioReport
runScenario(const std::string &bench, double horizon_paper_s,
            bool thermal_gc, double guard_temp_c)
{
    auto spec = scaledPlatformSpec(ExperimentConfig{});
    spec.thermal.capacitanceJperC /= kThermalScale;

    const auto program = workloads::buildProgram(
        workloads::benchmark(bench),
        workloads::studyScaleFor(workloads::DatasetScale::Small));

    sim::System system(spec);
    system.thermal().setFanEnabled(false);

    ScenarioReport report;
    std::ostringstream out;
    out << "t(paper s)  T(C)    duty   note\n";

    bool announcedThrottle = false;
    system.addPeriodicTask(2 * kTicksPerMilli, [&](Tick now) {
        const double t = ticksToSeconds(now) * kThermalScale;
        out.setf(std::ios::fixed);
        out.precision(1);
        out << t << "\t    " << system.thermal().temperatureC()
            << "\t  " << system.cpu().dutyCycle();
        if (system.thermal().throttled() && !announcedThrottle) {
            out << "   <-- emergency throttle engaged";
            announcedThrottle = true;
        }
        out << "\n";
    });

    jvm::JvmConfig cfg;
    cfg.collector = jvm::CollectorKind::GenCopy;
    cfg.heapBytes = scaledHeapBytes(ExperimentConfig{});

    jvm::Jvm *current = nullptr;
    if (thermal_gc) {
        system.addPeriodicTask(200 * kTicksPerMicro, [&](Tick) {
            if (!current)
                return;
            if (system.thermal().temperatureC() < guard_temp_c)
                return;
            if (current->port().current() != core::ComponentId::App)
                return; // never re-enter the collector
            current->collector().collect(false);
        });
    }

    const Tick horizon = secondsToTicks(horizon_paper_s / kThermalScale);
    while (system.cpu().now() < horizon) {
        jvm::Jvm vm(system, program, cfg);
        current = &vm;
        const auto r = vm.run();
        current = nullptr;
        ++report.runs;
        if (r.outOfMemory)
            break;
    }

    report.timeline = out.str();
    report.peakC = system.thermal().maxTemperatureC();
    report.throttledPaperSeconds =
        system.thermal().throttledSeconds() * kThermalScale;
    report.joulesEquivalent = system.cpuJoules() * kThermalScale;
    return report;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string name = argc > 1 ? argv[1] : "_222_mpegaudio";
    const double horizonPaperS = argc > 2 ? std::atof(argv[2]) : 200.0;
    const double guardC = 95.0;

    std::cout << "fan disabled; running " << name
              << " repeatedly on the simulated Pentium M, with and "
                 "without thermal-aware GC (guard "
              << guardC << " C)...\n";

    ScenarioReport reports[2];
    SweepRunner::parallelFor(2, [&](std::size_t i) {
        reports[i] =
            runScenario(name, horizonPaperS, i == 1, guardC);
    });

    const char *labels[2] = {"baseline (no policy)",
                             "thermal-aware GC"};
    for (int i = 0; i < 2; ++i) {
        const auto &r = reports[i];
        std::cout << "\n--- " << labels[i] << " ---\n" << r.timeline;
        std::cout << "completed " << r.runs << " benchmark runs; peak "
                  << r.peakC << " C; throttled "
                  << r.throttledPaperSeconds
                  << " equivalent seconds; total energy "
                  << r.joulesEquivalent << " J equivalent\n";
    }

    const double delta = reports[1].throttledPaperSeconds -
                         reports[0].throttledPaperSeconds;
    std::cout << "\nthermal-aware GC " << (delta < 0 ? "cut" : "added")
              << " " << std::fabs(delta)
              << " equivalent seconds of 50%-duty emergency throttling "
                 "(paper Section VI-C expects the proactive low-power GC "
                 "pause to defer it).\n";
    return 0;
}
