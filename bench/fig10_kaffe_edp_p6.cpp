/**
 * @file
 * Reproduces paper Fig. 10: energy-delay product for Kaffe on the P6
 * platform across heap sizes.
 *
 * Expected shape (Section VI-D): the EDP changes little when the heap
 * grows — Kaffe's incremental collector and slow JIT code leave almost
 * no heap-size-dependent component — in sharp contrast to the Jikes
 * curves of Fig. 7.
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
    const std::vector<std::uint32_t> heaps(kP6HeapsMB.begin(),
                                           kP6HeapsMB.end());

    std::vector<SweepTask> tasks;
    for (const auto &bench : benches) {
        for (const auto heap : heaps) {
            ExperimentConfig cfg;
            cfg.vm = jvm::VmKind::Kaffe;
            cfg.collector = jvm::CollectorKind::IncrementalMS;
            cfg.heapNominalMB = heap;
            tasks.push_back({cfg, bench});
        }
    }
    SweepRunner::Config rc;
    rc.progress = consoleProgress("fig10 sweep");
    const auto results = SweepRunner(rc).run(tasks);

    std::vector<std::vector<ExperimentResult>> rows;
    RunningStat flatness; // max/min EDP ratio per benchmark
    for (std::size_t b = 0; b < benches.size(); ++b) {
        std::vector<ExperimentResult> row;
        double lo = 1e300, hi = 0;
        for (std::size_t h = 0; h < heaps.size(); ++h) {
            row.push_back(results[b * heaps.size() + h]);
            if (row.back().ok()) {
                lo = std::min(lo, row.back().edp());
                hi = std::max(hi, row.back().edp());
            }
        }
        if (hi > 0)
            flatness.add(hi / lo);
        rows.push_back(std::move(row));
    }

    std::cout << "=== Fig. 10: Kaffe EDP (mJ*s at study scale) vs heap "
                 "size, P6 ===\n\n";
    edpTable(rows, heaps).print(std::cout);
    std::cout << "\nsummary: per-benchmark max/min EDP ratio across "
                 "heaps averages "
              << flatness.mean()
              << "x  (paper: EDP changes little with heap size)\n";
    return 0;
}
