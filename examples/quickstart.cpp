/**
 * @file
 * Quickstart: run one benchmark on the simulated Pentium M under the
 * Jikes personality and print the per-component energy decomposition —
 * the smallest end-to-end use of the javelin API.
 *
 * Usage: quickstart [benchmark] [heapMB] [collector]
 *   e.g. quickstart _213_javac 32 GenCopy
 * heapMB is a whole number in [1, 4096]; anything else exits 2.
 */

#include <cstdlib>
#include <iostream>
#include <string>

#include "harness/experiment.hh"
#include "harness/report.hh"
#include "harness/scenario.hh"

using namespace javelin;

namespace {

jvm::CollectorKind
parseCollector(const std::string &name)
{
    if (name == "SemiSpace")
        return jvm::CollectorKind::SemiSpace;
    if (name == "MarkSweep")
        return jvm::CollectorKind::MarkSweep;
    if (name == "GenCopy")
        return jvm::CollectorKind::GenCopy;
    if (name == "GenMS")
        return jvm::CollectorKind::GenMS;
    if (name == "IncMS")
        return jvm::CollectorKind::IncrementalMS;
    std::cerr << "unknown collector " << name << "\n";
    std::exit(1);
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string bench = argc > 1 ? argv[1] : "_213_javac";
    std::uint32_t heap = 32;
    if (argc > 2 && !harness::parseHeapArg(argv[2], heap)) {
        std::cerr << "usage: quickstart [benchmark] [heapMB 1-4096] "
                     "[collector]\n";
        return 2;
    }
    const std::string coll = argc > 3 ? argv[3] : "SemiSpace";

    harness::ExperimentConfig cfg;
    cfg.platform = sim::PlatformKind::P6;
    cfg.vm = jvm::VmKind::Jikes;
    cfg.collector = parseCollector(coll);
    cfg.heapNominalMB = heap;

    std::cout << "running " << bench << " (heap " << heap << " MB, "
              << coll << ", Jikes RVM on P6)...\n";
    const auto res =
        harness::runExperiment(cfg, workloads::benchmark(bench));

    harness::printRunSummary(std::cout, res);
    if (!res.ok())
        return 1;

    auto table = harness::energyDecompositionTable(
        {res}, harness::jikesComponents());
    table.print(std::cout);

    std::cout << "\nper-component detail:\n";
    for (const auto c : harness::jikesComponents()) {
        const auto &p = res.attribution.powerOf(c);
        const auto &perf = res.attribution.perfOf(c);
        std::cout << "  " << core::componentName(c) << ": "
                  << p.cpuJoules << " J, avg " << p.avgCpuWatts()
                  << " W, peak " << p.peakCpuWatts << " W, ";
        // No HPM sample fell in this component: nothing was measured,
        // and PerfCounters' empty-block 0.0 would read as a measured 0.
        if (perf.samples == 0)
            std::cout << "IPC n/a, L2 miss n/a\n";
        else
            std::cout << "IPC " << perf.ipc() << ", L2 miss "
                      << perf.l2MissRate() * 100 << "%\n";
    }
    return 0;
}
