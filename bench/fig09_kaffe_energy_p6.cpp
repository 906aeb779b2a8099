/**
 * @file
 * Reproduces paper Fig. 9: energy distribution for the Kaffe virtual
 * machine on the P6 platform.
 *
 * Expected shape (Section VI-D): JVM components are much less visible
 * than under Jikes — the garbage collector averages ~7% of energy, the
 * class loader ~1%, the JIT under 1%; Kaffe's mark-and-sweep collector
 * draws about the same power as the Jikes one.
 */

#include <iostream>

#include "harness/experiment.hh"
#include "harness/report.hh"
#include "harness/sweep.hh"
#include "util/stats.hh"

using namespace javelin;
using namespace javelin::harness;

int
main()
{
    const auto &benches = workloads::allBenchmarks();

    std::vector<ExperimentResult> rows;
    RunningStat gcShare, clShare, jitShare, gcPower;

    std::vector<SweepTask> tasks;
    for (const auto &bench : benches) {
        ExperimentConfig cfg;
        cfg.vm = jvm::VmKind::Kaffe;
        cfg.collector = jvm::CollectorKind::IncrementalMS;
        cfg.heapNominalMB = 64;
        tasks.push_back({cfg, bench});
    }
    SweepRunner::Config rc;
    rc.progress = consoleProgress("fig09 sweep");
    const auto results = SweepRunner(rc).run(tasks);
    if (reportSweepFailures(std::cerr, tasks, results) > 0)
        return 1;

    for (const auto &res : results) {
        rows.push_back(res);
        if (!res.ok())
            continue;
        gcShare.add(res.attribution.energyFraction(core::ComponentId::Gc));
        clShare.add(res.attribution.energyFraction(
            core::ComponentId::ClassLoader));
        jitShare.add(
            res.attribution.energyFraction(core::ComponentId::Jit));
        const auto &gc = res.attribution.powerOf(core::ComponentId::Gc);
        if (gc.samples > 3)
            gcPower.add(gc.avgCpuWatts());
    }

    std::cout << "=== Fig. 9: Kaffe energy distribution, P6 (64 MB "
                 "heap) ===\n\n";
    energyDecompositionTable(rows, kaffeComponents()).print(std::cout);

    std::cout << "\nsummary (paper expectations in parentheses):\n"
              << "  avg GC share " << gcShare.mean() * 100
              << "%  (~7%)\n"
              << "  avg CL share " << clShare.mean() * 100
              << "%  (~1%)\n"
              << "  avg JIT share " << jitShare.mean() * 100
              << "%  (<1%)\n"
              << "  Kaffe GC avg power " << gcPower.mean()
              << " W  (similar to the Jikes mark-sweep collector)\n";
    return 0;
}
