/**
 * @file
 * Quickstart: run one benchmark on the simulated Pentium M under the
 * Jikes personality and print the per-component energy decomposition —
 * the smallest end-to-end use of the javelin API.
 *
 * Usage: quickstart [benchmark] [heapMB] [collector]
 *   e.g. quickstart _213_javac 32 GenCopy
 * heapMB is a whole number in [1, 4096]; anything else, or an unknown
 * benchmark or collector, exits 2.
 */

#include <iostream>
#include <stdexcept>
#include <string>

#include "harness/experiment.hh"
#include "harness/report.hh"
#include "harness/scenario.hh"

using namespace javelin;

namespace {

constexpr const char *kUsage =
    "usage: quickstart [benchmark] [heapMB 1-4096] [collector]\n";

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
    throw std::invalid_argument("unknown collector: " + name);
}

} // namespace

int
main(int argc, char **argv)
try {
    const std::string bench = argc > 1 ? argv[1] : "_213_javac";
    const auto &profile = workloads::benchmark(bench);
    std::uint32_t heap = 32;
    if (argc > 2 && !harness::parseHeapArg(argv[2], heap)) {
        std::cerr << kUsage;
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
    const auto res = harness::runExperiment(cfg, profile);

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
} catch (const std::invalid_argument &e) {
    std::cerr << "quickstart: " << e.what() << "\n" << kUsage;
    return 2;
}
