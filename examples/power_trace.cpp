/**
 * @file
 * Example: export the raw measurement traces of one run — the 40 µs
 * power samples and the HPM counter samples — so the paper's figures
 * can be re-plotted from javelin data with any plotting tool.
 *
 * Capture tees through the trace spool (DESIGN.md §10): samples
 * stream to javelin-trace-v1 binary files as the run executes, and the
 * CSVs are decoded from the binary traces afterwards. `javelin-trace
 * cat/index/range` can inspect the .jtrc files directly.
 *
 * Usage: power_trace [benchmark] [heapMB] [outdir]
 * Writes <outdir>/<benchmark>_{power,perf}.csv and the binary
 * <outdir>/<benchmark>.{power,perf}.jtrc they were decoded from.
 */

#include <fstream>
#include <iostream>
#include <string>

#include "core/daq.hh"
#include "core/hpm_sampler.hh"
#include "core/trace_io.hh"
#include "core/trace_spool.hh"
#include "harness/experiment.hh"

using namespace javelin;

int
main(int argc, char **argv)
{
    const std::string bench = argc > 1 ? argv[1] : "_213_javac";
    const std::uint32_t heap =
        argc > 2 ? static_cast<std::uint32_t>(std::atoi(argv[2])) : 32;
    const std::string outdir = argc > 3 ? argv[3] : ".";

    // Assemble the rig by hand (runExperiment hides the traces).
    harness::ExperimentConfig cfg;
    cfg.heapNominalMB = heap;
    cfg.hpmPeriod = 100 * kTicksPerMicro;
    sim::System system(harness::scaledPlatformSpec(cfg));

    const auto program = workloads::buildProgram(
        workloads::benchmark(bench),
        workloads::studyScaleFor(cfg.dataset));

    jvm::JvmConfig vmCfg;
    vmCfg.collector = cfg.collector;
    vmCfg.heapBytes = harness::scaledHeapBytes(cfg);
    jvm::Jvm vm(system, program, vmCfg);

    // Tee capture: the samplers keep their in-memory traces and append
    // every sample to a spool as it is taken.
    const std::string powerTrc = outdir + "/" + bench + ".power.jtrc";
    const std::string perfTrc = outdir + "/" + bench + ".perf.jtrc";
    core::TraceSpool::Config powerSp;
    powerSp.path = powerTrc;
    powerSp.kind = core::tracefmt::RecordKind::Power;
    core::TraceSpool powerSpool(powerSp);
    core::TraceSpool::Config perfSp;
    perfSp.path = perfTrc;
    perfSp.kind = core::tracefmt::RecordKind::Perf;
    core::TraceSpool perfSpool(perfSp);

    core::Daq::Config daqCfg;
    daqCfg.spool = &powerSpool;
    core::Daq daq(system, vm.port(), daqCfg);

    core::HpmSampler::Config hpmCfg;
    hpmCfg.spool = &perfSpool;
    core::HpmSampler hpm(system, vm.port(), hpmCfg);

    std::cout << "running " << bench << " (heap " << heap
              << " MB nominal)...\n";
    const auto r = vm.run();
    if (r.outOfMemory) {
        std::cerr << "out of memory\n";
        return 1;
    }
    powerSpool.close();
    perfSpool.close();

    // Decode the binary traces back out for the plotting-tool CSVs.
    const std::string powerPath = outdir + "/" + bench + "_power.csv";
    const std::string perfPath = outdir + "/" + bench + "_perf.csv";
    {
        core::TraceReader reader(powerTrc);
        std::ofstream f(powerPath);
        core::writePowerCsv(f, reader.readPower());
    }
    {
        core::TraceReader reader(perfTrc);
        std::ofstream f(perfPath);
        core::writePerfCsv(f, reader.readPerf());
    }
    std::cout << "wrote " << daq.trace().size() << " power samples to "
              << powerPath << " (spooled via " << powerTrc << ")\n"
              << "      " << hpm.trace().size() << " perf samples to "
              << perfPath << " (spooled via " << perfTrc << ")\n"
              << "run: " << r.seconds() * 1e3 << " ms, "
              << r.gc.collections << " GCs, "
              << daq.measuredCpuJoules() << " J measured\n";
    return 0;
}
