/**
 * @file
 * Ablation A2: write-barrier overhead.
 *
 * Section VI-B attributes part of GenCopy's mutator cost to "a slight
 * performance overhead of write barriers" that undermines its locality
 * benefit for _209_db. The simulator can isolate exactly that term:
 * the same run with the barrier's mutator charges switched off (the
 * remembered set stays correct, only the cost disappears) bounds the
 * barrier's contribution to time and energy. The timer-sampled adaptive
 * optimizer shifts its compile decisions when a few cycles move, which
 * can outweigh the barrier itself, so the last column repeats the
 * time comparison with adaptive optimization off: the barrier's direct
 * cost. The closing line quotes both ranges from the table.
 */

#include <algorithm>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "harness/experiment.hh"
#include "harness/report.hh"
#include "harness/sweep.hh"
#include "util/table.hh"

using namespace javelin;
using namespace javelin::harness;

int
main()
{
    std::cout << "=== A2: write-barrier overhead, Jikes RVM + GenCopy, "
                 "128 MB ===\n\n";

    Table t({"benchmark", "time w/ barrier(ms)", "time w/o(ms)",
             "overhead", "energy overhead", "barrier hits",
             "overhead w/o AOS"});
    const std::vector<const char *> names = {"_209_db", "_213_javac",
                                             "_202_jess", "pmd"};
    // With and without the barrier charges, first with the adaptive
    // optimizer on, then off; the off pairs go last so the first
    // pairs keep their sweep positions (and so their seeds).
    std::vector<SweepTask> tasks;
    for (const bool adaptive : {true, false}) {
        for (const char *name : names) {
            ExperimentConfig cfg;
            cfg.collector = jvm::CollectorKind::GenCopy;
            cfg.heapNominalMB = 128;
            cfg.adaptiveOptimization = adaptive;
            tasks.push_back({cfg, workloads::benchmark(name)});
            cfg.chargeBarrierCost = false;
            tasks.push_back({cfg, workloads::benchmark(name)});
        }
    }
    const auto results = SweepRunner().run(tasks);
    if (reportSweepFailures(std::cerr, tasks, results) > 0)
        return 1;
    const std::size_t direct = 2 * names.size();
    const auto overhead = [](const ExperimentResult &with,
                             const ExperimentResult &without) {
        return (with.run.seconds() - without.run.seconds()) /
               without.run.seconds();
    };

    std::vector<double> withAos, withoutAos;
    for (std::size_t i = 0; i < names.size(); ++i) {
        const char *name = names[i];
        const auto &with = results[2 * i];
        const auto &without = results[2 * i + 1];
        const auto &withDirect = results[direct + 2 * i];
        const auto &withoutDirect = results[direct + 2 * i + 1];
        if (!with.ok() || !without.ok() || !withDirect.ok() ||
            !withoutDirect.ok())
            continue;

        withAos.push_back(overhead(with, without));
        withoutAos.push_back(overhead(withDirect, withoutDirect));
        t.beginRow();
        t.cell(name);
        t.cell(with.run.seconds() * 1e3, 2);
        t.cell(without.run.seconds() * 1e3, 2);
        t.cellPct(withAos.back(), 2);
        t.cellPct((with.attribution.totalCpuJoules -
                   without.attribution.totalCpuJoules) /
                  without.attribution.totalCpuJoules, 2);
        t.cell(with.run.gc.barrierHits);
        t.cellPct(withoutAos.back(), 2);
    }
    t.print(std::cout);
    if (withAos.empty())
        return 1;
    const auto range = [](const std::vector<double> &xs) {
        const auto [lo, hi] = std::minmax_element(xs.begin(), xs.end());
        std::ostringstream os;
        os << std::fixed << std::setprecision(2) << *lo * 100.0
           << "% to " << *hi * 100.0 << "%";
        return os.str();
    };
    std::cout << "\nThe barrier's direct cost, with adaptive optimization "
                 "off, is "
              << range(withoutAos)
              << " of run time; with the optimizer on, the shifts in its "
                 "compile decisions move the same comparison to "
              << range(withAos) << ".\n";
    return 0;
}
