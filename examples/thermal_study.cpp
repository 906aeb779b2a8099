/**
 * @file
 * Example: the fan-failure scenario of paper Fig. 1, driven through the
 * public API — harness::runThermalStudy runs a workload in a loop,
 * records the die temperature, and shows the emergency 50%-duty
 * throttle engage, with and without the thermal-aware GC policy of
 * Section VI-C. The two studies simulate independent systems, so they
 * run concurrently on the sweep pool and their timelines print side
 * by side afterwards.
 *
 * Usage: thermal_study [benchmark] [paper-seconds]
 * An unknown benchmark, or a horizon that is not a positive decimal,
 * exits 2.
 */

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "harness/experiment.hh"
#include "harness/sweep.hh"

using namespace javelin;
using namespace javelin::harness;

namespace {

constexpr const char *kUsage =
    "usage: thermal_study [benchmark] [paper-seconds]\n";

/** Print one row per this many 500 us timeline samples (2 ms). */
constexpr std::size_t kRowEvery = 4;

std::string
renderTimeline(const ThermalStudyResult &r)
{
    std::ostringstream out;
    out << "t(paper s)  T(C)    duty   note\n";
    out.setf(std::ios::fixed);
    out.precision(1);
    bool announcedThrottle = false;
    for (std::size_t i = kRowEvery - 1; i < r.timeline.size();
         i += kRowEvery) {
        const ThermalSample &s = r.timeline[i];
        out << s.seconds << "\t    " << s.tempC << "\t  " << s.duty;
        if (s.throttled && !announcedThrottle) {
            out << "   <-- emergency throttle engaged";
            announcedThrottle = true;
        }
        out << "\n";
    }
    return out.str();
}

/**
 * Parse the horizon as a finite positive decimal ("200", "37.5"):
 * strtod alone would accept a sign, an exponent, hex, "inf" and "nan".
 * False on anything else, leaving `out` untouched.
 */
bool
parseHorizon(const char *text, double &out)
{
    const std::size_t digits = std::strspn(text, "0123456789.");
    const char *point = std::strchr(text, '.');
    if (digits == 0 || text[digits] != '\0' ||
        (point && std::strchr(point + 1, '.')))
        return false;
    const double v = std::strtod(text, nullptr);
    if (!(v > 0.0) || !std::isfinite(v))
        return false;
    out = v;
    return true;
}

} // namespace

int
main(int argc, char **argv)
try {
    const std::string name = argc > 1 ? argv[1] : "_222_mpegaudio";
    workloads::benchmark(name); // checked here: pool workers cannot throw
    double horizonPaperS = 200.0;
    if (argc > 3 || (argc > 2 && !parseHorizon(argv[2], horizonPaperS))) {
        std::cerr << kUsage;
        return 2;
    }
    const double guardC = 95.0;

    std::cout << "fan disabled; running " << name
              << " repeatedly on the simulated Pentium M, with and "
                 "without thermal-aware GC (guard "
              << guardC << " C)...\n";

    ThermalStudyResult reports[2];
    SweepRunner::parallelFor(2, [&](std::size_t i) {
        ThermalStudyConfig cfg;
        cfg.benchmark = name;
        cfg.horizonSeconds = horizonPaperS;
        cfg.guardC = i == 1 ? guardC : 0.0;
        reports[i] = runThermalStudy(cfg);
    });

    const char *labels[2] = {"baseline (no policy)",
                             "thermal-aware GC"};
    for (int i = 0; i < 2; ++i) {
        const auto &r = reports[i];
        std::cout << "\n--- " << labels[i] << " ---\n"
                  << renderTimeline(r);
        std::cout << "completed " << r.runs << " benchmark runs; peak "
                  << r.peakC << " C; throttled " << r.throttledSeconds
                  << " equivalent seconds; total energy " << r.cpuJoules
                  << " J equivalent\n";
    }

    const double delta =
        reports[1].throttledSeconds - reports[0].throttledSeconds;
    std::cout << "\nthermal-aware GC " << (delta < 0 ? "cut" : "added")
              << " " << std::fabs(delta)
              << " equivalent seconds of 50%-duty emergency throttling "
                 "(paper Section VI-C expects the proactive low-power GC "
                 "pause to defer it).\n";
    return 0;
} catch (const std::invalid_argument &e) {
    std::cerr << "thermal_study: " << e.what() << "\n" << kUsage;
    return 2;
}
