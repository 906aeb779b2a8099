/**
 * @file
 * Example: export the raw measurement traces of one run — the 40 µs
 * power samples and the HPM counter samples — so the paper's figures
 * can be re-plotted from javelin data with any plotting tool.
 *
 * The run is a plain runExperiment with traceSpoolDir set to the
 * outdir (DESIGN.md §10): samples stream to javelin-trace-v1 binary
 * files as the run executes, and the CSVs are decoded from the binary
 * traces afterwards. runExperiment stops the DAQ and the HPM sampler,
 * so the CSVs end with the final partial windows its attribution
 * counts. `javelin-trace cat/index/range` can inspect the .jtrc files
 * directly.
 *
 * Usage: power_trace [benchmark] [heapMB] [outdir]
 * Writes <outdir>/<benchmark>_{power,perf}.csv and the binary
 * <outdir>/<benchmark>.{power,perf}.jtrc they were decoded from.
 * heapMB is a whole number in [1, 4096]; anything else, or an unknown
 * benchmark, exits 2. A trace that cannot be written or read back
 * exits 1 with its error.
 */

#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>

#include "core/trace_io.hh"
#include "core/trace_spool.hh"
#include "harness/experiment.hh"
#include "harness/scenario.hh"

using namespace javelin;

constexpr const char *kUsage =
    "usage: power_trace [benchmark] [heapMB 1-4096] [outdir]\n";

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
    const std::string outdir = argc > 3 ? argv[3] : ".";

    harness::ExperimentConfig cfg;
    cfg.heapNominalMB = heap;
    cfg.hpmPeriod = 100 * kTicksPerMicro;
    cfg.traceSpoolDir = outdir;

    std::cout << "running " << bench << " (heap " << heap
              << " MB nominal)...\n";
    const auto res = harness::runExperiment(cfg, profile);
    if (res.run.outOfMemory) {
        std::cerr << "out of memory\n";
        return 1;
    }

    // Decode the binary traces back out for the plotting-tool CSVs.
    const std::string powerTrc = outdir + "/" + bench + ".power.jtrc";
    const std::string perfTrc = outdir + "/" + bench + ".perf.jtrc";
    const std::string powerPath = outdir + "/" + bench + "_power.csv";
    const std::string perfPath = outdir + "/" + bench + "_perf.csv";
    const core::PowerTrace power = core::TraceReader(powerTrc).readPower();
    const core::PerfTrace perf = core::TraceReader(perfTrc).readPerf();
    std::ofstream powerCsv(powerPath), perfCsv(perfPath);
    core::writePowerCsv(powerCsv, power);
    core::writePerfCsv(perfCsv, perf);
    std::cout << "wrote " << power.size() << " power samples to "
              << powerPath << " (spooled via " << powerTrc << ")\n"
              << "      " << perf.size() << " perf samples to "
              << perfPath << " (spooled via " << perfTrc << ")\n"
              << "run: " << res.run.seconds() * 1e3 << " ms, "
              << res.run.gc.collections << " GCs, "
              << res.attribution.totalCpuJoules << " J measured\n";
    return 0;
} catch (const std::invalid_argument &e) {
    std::cerr << "power_trace: " << e.what() << "\n" << kUsage;
    return 2;
} catch (const std::exception &e) {
    std::cerr << "power_trace: " << e.what() << "\n";
    return 1;
}
