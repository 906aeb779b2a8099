/**
 * @file
 * Reproduces the scalar per-component claims of paper Sections VI-A and
 * VI-C (experiment T1 in DESIGN.md):
 *  - average GC energy share at 32 MB vs 128 MB heaps (37% -> 10% for
 *    SpecJVM98 with SemiSpace);
 *  - per-collector average GC power (GenCopy 12.8 W, SemiSpace 12.3 W,
 *    GenMS 12.7 W, MarkSweep 11.7 W) vs the application;
 *  - per-component IPC and L2 miss rates (App ~0.8/11%, GC ~0.55/54%);
 *  - main-memory energy share (5-8%).
 *
 * A finer HPM period than the paper's 1 ms OS timer is used because the
 * scaled runs last tens of milliseconds rather than minutes; the
 * sampling *mechanism* is unchanged.
 */

#include <iostream>

#include "harness/experiment.hh"
#include "harness/report.hh"
#include "harness/sweep.hh"
#include "util/stats.hh"

using namespace javelin;

int
main()
{
    const auto collectors = {
        jvm::CollectorKind::GenCopy, jvm::CollectorKind::SemiSpace,
        jvm::CollectorKind::GenMS, jvm::CollectorKind::MarkSweep};

    const auto benches = workloads::suiteBenchmarks("SpecJVM98");

    Table power({"collector", "GC avgW", "GC IPC", "GC L2miss",
                 "App avgW", "App IPC", "App L2miss", "mem%"});
    Table share({"collector", "GC% @32MB", "GC% @128MB"});

    std::vector<harness::SweepTask> tasks;
    for (const auto collector : collectors) {
        for (const auto &bench : benches) {
            for (const std::uint32_t heap : {32u, 128u}) {
                harness::ExperimentConfig cfg;
                cfg.collector = collector;
                cfg.heapNominalMB = heap;
                cfg.hpmPeriod = 100 * kTicksPerMicro;
                tasks.push_back({cfg, bench});
            }
        }
    }
    harness::SweepRunner::Config rc;
    rc.progress = harness::consoleProgress("tab sweep");
    const auto results = harness::SweepRunner(rc).run(tasks);
    if (harness::reportSweepFailures(std::cerr, tasks, results) > 0)
        return 1;

    const std::size_t perCollector = benches.size() * 2;
    std::size_t taskIdx = 0;
    for (const auto collector : collectors) {
        RunningStat gcW, gcIpc, gcMiss, appW, appIpc, appMiss, memShare;
        RunningStat gc32, gc128;
        for (std::size_t i = 0; i < perCollector; ++i) {
            const auto &res = results[taskIdx++];
            const std::uint32_t heap = res.config.heapNominalMB;
            if (!res.ok())
                continue;
            const auto &gc =
                res.attribution.powerOf(core::ComponentId::Gc);
            const auto &app =
                res.attribution.powerOf(core::ComponentId::App);
            const auto &gcp =
                res.attribution.perfOf(core::ComponentId::Gc);
            const auto &appp =
                res.attribution.perfOf(core::ComponentId::App);
            if (gc.samples > 3) {
                gcW.add(gc.avgCpuWatts());
                gcIpc.add(gcp.ipc());
                gcMiss.add(gcp.l2MissRate());
            }
            appW.add(app.avgCpuWatts());
            appIpc.add(appp.ipc());
            appMiss.add(appp.l2MissRate());
            memShare.add(res.attribution.totalMemJoules /
                         res.attribution.totalJoules());
            (heap == 32 ? gc32 : gc128)
                .add(res.attribution.energyFraction(
                    core::ComponentId::Gc));
        }
        power.beginRow();
        power.cell(jvm::collectorName(collector));
        power.cell(gcW.mean(), 2).cell(gcIpc.mean(), 2);
        power.cellPct(gcMiss.mean());
        power.cell(appW.mean(), 2).cell(appIpc.mean(), 2);
        power.cellPct(appMiss.mean());
        power.cellPct(memShare.mean());

        share.beginRow();
        share.cell(jvm::collectorName(collector));
        share.cellPct(gc32.mean()).cellPct(gc128.mean());
    }

    std::cout << "=== T1a: per-component power/IPC/L2 (SpecJVM98, "
                 "Jikes RVM, P6) ===\n";
    std::cout << "paper: GC avg power GenCopy 12.8W / SemiSpace 12.3W / "
                 "GenMS 12.7W / MarkSweep 11.7W;\n"
                 "       App IPC ~0.8 & L2 ~11%; GC IPC ~0.55 & L2 ~54%; "
                 "memory energy 5-8%\n\n";
    power.print(std::cout);

    std::cout << "\n=== T1b: average GC energy share vs heap "
                 "(paper: 37% @32MB -> 10% @128MB, SemiSpace) ===\n";
    share.print(std::cout);
    return 0;
}
