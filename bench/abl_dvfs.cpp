/**
 * @file
 * Ablation A4: dynamic voltage and frequency scaling (the paper's
 * Section VII future work, implemented as an extension).
 *
 * Sweeps the Pentium M operating points for a compute-bound benchmark
 * (_222_mpegaudio) and a GC-bound one (_213_javac at 32 MB): energy
 * falls with V^2 while runtime stretches with 1/f. Which of the two
 * wins the energy-delay product is what the sweep measures, so the
 * closing line names each benchmark's minimum-EDP point from its
 * table rather than asserting one.
 */

#include <iomanip>
#include <iostream>
#include <sstream>

#include "harness/experiment.hh"
#include "harness/report.hh"
#include "harness/scenario.hh"
#include "harness/sweep.hh"
#include "util/table.hh"

using namespace javelin;
using namespace javelin::harness;

int
main(int argc, char **argv)
{
    // Declarative sweep: the builtin "abl-dvfs" scenario is the matrix
    // (pinned as tests/fixtures/abl_dvfs.scenario.json; `javelin-sweep
    // --builtin abl-dvfs --print-scenario` prints it).
    const Scenario scenario = builtinScenario("abl-dvfs");
    std::string traceDir;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--trace-dir" && i + 1 < argc) {
            traceDir = argv[++i];
            continue;
        }
        std::cerr << "usage: abl_dvfs [--trace-dir DIR]\n";
        return 2;
    }

    std::cout << "=== A4: DVFS sweep, Jikes RVM + GenCopy, P6 ===\n\n";

    const auto spec = sim::p6Spec();
    const auto &names = scenario.benchmarks;
    auto tasks = expandScenario(scenario);
    // Host-side capture knob; shard keys name the per-run spool dirs.
    if (!traceDir.empty())
        for (auto &task : tasks)
            task.config.traceSpoolDir =
                traceDir + "/" + shardKey(task);
    const auto results = SweepRunner().run(tasks);
    if (reportSweepFailures(std::cerr, tasks, results) > 0)
        return 1;

    std::size_t taskIdx = 0;
    std::ostringstream lowest;
    lowest << std::fixed;
    for (const auto &name : names) {
        Table t({"point", "freq(GHz)", "volts", "time(ms)", "energy(J)",
                 "EDP(mJ*s)"});
        std::size_t best = 0;
        double bestEdp = 0.0;
        bool any = false;
        for (std::size_t i = 0; i < spec.dvfsPoints.size(); ++i) {
            const auto &res = results[taskIdx++];
            if (!res.ok())
                continue;
            if (!any || res.edp() < bestEdp) {
                best = i;
                bestEdp = res.edp();
                any = true;
            }
            t.beginRow();
            t.cell(static_cast<std::int64_t>(i));
            t.cell(spec.dvfsPoints[i].freqHz / 1e9, 1);
            t.cell(spec.dvfsPoints[i].volts, 3);
            t.cell(res.run.seconds() * 1e3, 2);
            t.cell(res.attribution.totalJoules(), 4);
            t.cell(res.edp() * 1e3, 3);
        }
        std::cout << name << ":\n";
        t.print(std::cout);
        std::cout << "\n";
        if (any)
            lowest << (lowest.tellp() > 0 ? ", " : "") << name
                   << " at point " << best << " (" << std::setprecision(1)
                   << spec.dvfsPoints[best].freqHz / 1e9 << " GHz, "
                   << std::setprecision(3) << bestEdp * 1e3 << " mJ*s)";
    }
    std::cout << "Lowest EDP: " << lowest.str() << ".\n";
    return 0;
}
