/**
 * @file
 * Reproduces paper Fig. 1: processor temperature under repetitive runs
 * of _222_mpegaudio on Jikes RVM (GenCopy), with the fan enabled and
 * disabled. With the fan on, the temperature settles near 60 C; with
 * the fan off it climbs to the 99 C trip point (about 240 s on the real
 * board), where the emergency response halves the clock duty cycle and
 * the temperature saw-tooths around the threshold.
 *
 * Both studies are harness::runThermalStudy runs over [0, 300 s],
 * which dilate the thermal time constant with the study scale; the
 * time axis below is in equivalent paper seconds.
 */

#include <algorithm>
#include <iostream>

#include "harness/experiment.hh"
#include "harness/sweep.hh"
#include "util/table.hh"

using namespace javelin;
using namespace javelin::harness;

int
main()
{
    std::cout << "=== Fig. 1: Pentium M temperature, repetitive "
                 "_222_mpegaudio, Jikes RVM + GenCopy ===\n"
              << "(time axis in equivalent paper seconds; thermal mass "
                 "scaled with the study scale)\n\n";

    // Fan on, then fan off; each study simulates its own System.
    ThermalStudyResult studies[2];
    SweepRunner::parallelFor(2, [&](std::size_t i) {
        ThermalStudyConfig cfg;
        cfg.fanEnabled = i == 0;
        cfg.horizonSeconds = 300.0;
        studies[i] = runThermalStudy(cfg);
    });
    const auto &fanOn = studies[0].timeline;
    const auto &fanOff = studies[1].timeline;

    Table t({"t(s)", "fan-on T(C)", "fan-off T(C)", "fan-off duty"});
    const std::size_t n = std::min(fanOn.size(), fanOff.size());
    for (std::size_t i = 0; i < n; i += std::max<std::size_t>(1, n / 25)) {
        t.beginRow();
        t.cell(fanOn[i].seconds, 0);
        t.cell(fanOn[i].tempC, 1);
        t.cell(fanOff[i].tempC, 1);
        t.cell(fanOff[i].duty, 2);
    }
    t.print(std::cout);

    double tripAt = -1;
    for (const auto &p : fanOff) {
        if (p.duty < 1.0) {
            tripAt = p.seconds;
            break;
        }
    }
    std::cout << "\nsummary (paper expectations in parentheses):\n"
              << "  fan-on peak temperature " << studies[0].peakC
              << " C  (~60 C steady)\n"
              << "  fan-off peak temperature " << studies[1].peakC
              << " C  (clips at 99 C)\n"
              << "  throttle engaged at t=" << tripAt
              << " s equivalent  (~240 s), duty 0.50\n";
    return 0;
}
