/**
 * @file
 * Reproduces paper Fig. 8: average and peak power per component
 * (application, GC, class loader) for all benchmarks on Jikes RVM with
 * the GenCopy collector across heap sizes.
 *
 * Expected shape (Section VI-C): the garbage collector is one of the
 * least power-hungry components; JVM components show little power
 * variation from benchmark to benchmark; for most benchmarks peak power
 * is set by the application and not a JVM service (the _209_db GC peak
 * of 17.5 W being the visible exception).
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
    const std::vector<std::uint32_t> heaps = {32, 64, 96, 128};

    std::vector<ExperimentResult> rows;
    RunningStat appAvg, gcAvg, clAvg;
    int appSetsPeak = 0, total = 0;

    std::vector<SweepTask> tasks;
    for (const auto &bench : benches) {
        for (const auto heap : heaps) {
            ExperimentConfig cfg;
            cfg.collector = jvm::CollectorKind::GenCopy;
            cfg.heapNominalMB = heap;
            tasks.push_back({cfg, bench});
        }
    }
    SweepRunner::Config rc;
    rc.progress = consoleProgress("fig08 sweep");
    const auto results = SweepRunner(rc).run(tasks);
    if (reportSweepFailures(std::cerr, tasks, results) > 0)
        return 1;

    for (const auto &res : results) {
        rows.push_back(res);
        if (!res.ok())
            continue;
        const auto &app =
            res.attribution.powerOf(core::ComponentId::App);
        const auto &gc =
            res.attribution.powerOf(core::ComponentId::Gc);
        const auto &cl =
            res.attribution.powerOf(core::ComponentId::ClassLoader);
        appAvg.add(app.avgCpuWatts());
        if (gc.samples > 3)
            gcAvg.add(gc.avgCpuWatts());
        if (cl.samples > 3)
            clAvg.add(cl.avgCpuWatts());
        ++total;
        appSetsPeak +=
            app.peakCpuWatts >= res.attribution.peakCpuWatts - 1e-9;
    }

    std::cout << "=== Fig. 8: average and peak power per component, "
                 "Jikes RVM + GenCopy, P6 ===\n\n";
    powerTable(rows, {core::ComponentId::App, core::ComponentId::Gc,
                      core::ComponentId::ClassLoader})
        .print(std::cout);

    std::cout << "\nsummary (paper expectations in parentheses):\n"
              << "  avg power: App " << appAvg.mean() << " W, GC "
              << gcAvg.mean() << " W, CL " << clAvg.mean()
              << " W  (GC is the least power-hungry component)\n"
              << "  GC power spread across runs: +/-" << gcAvg.stddev()
              << " W  (little variation)\n"
              << "  application sets the peak in " << appSetsPeak << "/"
              << total << " runs  (most benchmarks)\n";
    return 0;
}
