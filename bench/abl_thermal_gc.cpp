/**
 * @file
 * Ablation A3: thermal-aware garbage collection triggering — the
 * optimization paper Section VI-C proposes: "by triggering garbage
 * collection at points when the temperature of the processor has
 * exceeded a safety threshold level, the processor executes a component
 * with less power requirements, potentially giving it time to cool
 * down to a safe level."
 *
 * The policy (harness::ThermalStudyConfig::guardC) forces a collection
 * whenever the die crosses a guard temperature below the hardware trip
 * point. Because the collector draws less power than the application,
 * the proactive pause flattens the temperature ramp and delays (or
 * avoids) the 50%-duty emergency throttle, trading a little GC energy
 * for sustained clock speed.
 */

#include <iostream>
#include <vector>

#include "harness/experiment.hh"
#include "harness/sweep.hh"
#include "util/table.hh"

using namespace javelin;
using namespace javelin::harness;

/** Every study's span, in equivalent paper seconds. */
constexpr double kHorizonSeconds = 180.0;

int
main()
{
    std::cout << "=== A3: thermal-aware GC triggering (Section VI-C "
                 "proposal), fan disabled, _202_jess ===\n"
              << "(every study measured over [0, " << kHorizonSeconds
              << " s]; equivalent paper units)\n\n";

    // An allocation-heavy benchmark: proactive collections occupy a
    // substantial duty cycle, which is what produces cooling (for a
    // compute benchmark with an empty nursery the trigger is a no-op
    // and the policy has no effect).
    //
    // Each study simulates a private System, so the baseline and the
    // three guard temperatures run concurrently on the sweep pool.
    const std::vector<double> guards = {0.0, 97.0, 95.0, 92.0};
    std::vector<ThermalStudyResult> outcomes(guards.size());
    SweepRunner::parallelFor(outcomes.size(), [&](std::size_t i) {
        ThermalStudyConfig cfg;
        cfg.benchmark = "_202_jess";
        cfg.horizonSeconds = kHorizonSeconds;
        cfg.guardC = guards[i];
        outcomes[i] = runThermalStudy(cfg);
    });
    const auto throttledPct = [](const ThermalStudyResult &r) {
        return r.throttledSeconds / r.seconds * 100.0;
    };

    const ThermalStudyResult &base = outcomes[0];
    const double basePct = throttledPct(base);
    Table t({"policy", "peak T(C)", "throttled%", "GCs",
             "energy (rel)", "work done (rel)"});
    t.beginRow();
    t.cell("baseline").cell(base.peakC, 1).cell(basePct, 1);
    t.cell(base.collections).cell(1.0, 3).cell(1.0, 3);

    std::size_t reduced = 0, lessWork = 0;
    for (std::size_t g = 1; g < guards.size(); ++g) {
        const ThermalStudyResult &o = outcomes[g];
        const double pct = throttledPct(o);
        reduced += pct < basePct;
        t.beginRow();
        t.cell("GC @" + std::to_string(static_cast<int>(guards[g])) + "C");
        t.cell(o.peakC, 1);
        t.cell(pct, 1);
        t.cell(o.collections);
        t.cell(o.cpuJoules / base.cpuJoules, 3);
        // Work: the application's bytecodes executed by the horizon.
        t.cell(static_cast<double>(o.bytecodes) /
                   static_cast<double>(base.bytecodes),
               3);
        lessWork += o.bytecodes < base.bytecodes;
    }
    t.print(std::cout);
    std::cout << "\nTriggering the low-power GC below the trip point "
                 "reduces time spent in 50%-duty emergency throttling at "
              << reduced << " of " << guards.size() - 1
              << " guards (the paper anticipates that it would); the "
                 "application executes fewer bytecodes by the horizon at "
              << lessWork << " of " << guards.size() - 1 << ".\n";
    return 0;
}
