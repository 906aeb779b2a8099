/**
 * @file
 * Reproduces paper Fig. 6: per-component energy decomposition (opt
 * compiler, base compiler, class loader, GC, application) for all 16
 * benchmarks under the Jikes RVM with the SemiSpace collector.
 *
 * The paper's headline numbers: up to 60% of total energy goes to JVM
 * components (_213_javac at 32 MB); the garbage collector averages 37%
 * for SpecJVM98 at 32 MB falling to 10% at 128 MB; DaCapo averages 32%
 * at 48 MB falling to 11% at 128 MB.
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
    std::vector<ExperimentResult> rows;
    RunningStat specGcSmall, specGcBig, dacapoGcSmall, dacapoGcBig;
    double maxJvm = 0;
    std::string maxJvmAt;

    const auto &benches = workloads::allBenchmarks();

    std::vector<SweepTask> tasks;
    for (const auto &bench : benches) {
        // DaCapo live sets do not fit a 32 MB copying heap (Section V):
        // their small-heap column is 48 MB, as in the paper.
        const std::uint32_t smallHeap =
            bench.suite == "DaCapo" ? 48 : 32;
        for (const std::uint32_t heap : {smallHeap, 128u}) {
            ExperimentConfig cfg;
            cfg.vm = jvm::VmKind::Jikes;
            cfg.collector = jvm::CollectorKind::SemiSpace;
            cfg.heapNominalMB = heap;
            tasks.push_back({cfg, bench});
        }
    }
    SweepRunner::Config rc;
    rc.progress = consoleProgress("fig06 sweep");
    const auto results = SweepRunner(rc).run(tasks);
    if (reportSweepFailures(std::cerr, tasks, results) > 0)
        return 1;

    for (const auto &res : results) {
        const auto &bench = workloads::benchmark(res.benchmark);
        const std::uint32_t heap = res.config.heapNominalMB;
        rows.push_back(res);
        if (!res.ok())
            continue;
        const double gc =
            res.attribution.energyFraction(core::ComponentId::Gc);
        const double jvm = res.attribution.jvmEnergyFraction();
        if (jvm > maxJvm) {
            maxJvm = jvm;
            maxJvmAt = bench.name + "@" + std::to_string(heap);
        }
        if (bench.suite == "SpecJVM98")
            (heap == 32 ? specGcSmall : specGcBig).add(gc);
        if (bench.suite == "DaCapo")
            (heap == 48 ? dacapoGcSmall : dacapoGcBig).add(gc);
    }

    std::cout << "=== Fig. 6: energy decomposition, Jikes RVM + "
                 "SemiSpace, P6 ===\n\n";
    energyDecompositionTable(rows, jikesComponents()).print(std::cout);

    std::cout << "\nsummary (paper expectations in parentheses):\n";
    std::cout << "  max JVM energy share: " << maxJvm * 100 << "% at "
              << maxJvmAt << "  (up to ~60% for _213_javac@32MB)\n";
    std::cout << "  SpecJVM98 avg GC share: "
              << specGcSmall.mean() * 100 << "% @32MB -> "
              << specGcBig.mean() * 100 << "% @128MB  (37% -> 10%)\n";
    std::cout << "  DaCapo avg GC share: " << dacapoGcSmall.mean() * 100
              << "% @48MB -> " << dacapoGcBig.mean() * 100
              << "% @128MB  (32% -> 11%)\n";
    return 0;
}
