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
 * heapMB is a whole number in [1, 4096]; anything else exits 2.
 */

#include <fstream>
#include <iostream>
#include <string>

#include "core/trace_io.hh"
#include "core/trace_spool.hh"
#include "harness/experiment.hh"
#include "harness/scenario.hh"

using namespace javelin;

int
main(int argc, char **argv)
{
    const std::string bench = argc > 1 ? argv[1] : "_213_javac";
    std::uint32_t heap = 32;
    if (argc > 2 && !harness::parseHeapArg(argv[2], heap)) {
        std::cerr << "usage: power_trace [benchmark] [heapMB 1-4096] "
                     "[outdir]\n";
        return 2;
    }
    const std::string outdir = argc > 3 ? argv[3] : ".";

    harness::ExperimentConfig cfg;
    cfg.heapNominalMB = heap;
    cfg.hpmPeriod = 100 * kTicksPerMicro;
    cfg.traceSpoolDir = outdir;

    std::cout << "running " << bench << " (heap " << heap
              << " MB nominal)...\n";
    const auto res = harness::runExperiment(cfg, workloads::benchmark(bench));
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
}
