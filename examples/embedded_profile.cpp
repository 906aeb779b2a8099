/**
 * @file
 * Example: the embedded-platform study (paper Section VI-E) as an API
 * walkthrough — run Kaffe on the simulated DBPXA255 board and contrast
 * it with the same workload on the P6, showing how the component
 * balance flips (class loader dominant, GC the most power-hungry
 * component) when the platform changes.
 *
 * Usage: embedded_profile [benchmark]
 * An unknown benchmark exits 2.
 */

#include <iostream>
#include <stdexcept>
#include <string>

#include "harness/experiment.hh"
#include "harness/report.hh"

using namespace javelin;
using namespace javelin::harness;

namespace {

void
describe(const char *label, const ExperimentResult &res, double unit)
{
    std::cout << label << ":\n";
    if (!res.ok()) {
        std::cout << "  (out of memory)\n";
        return;
    }
    std::cout << "  run time " << res.run.seconds() * 1e3 << " ms, "
              << res.attribution.totalCpuJoules << " J CPU + "
              << res.attribution.totalMemJoules << " J memory\n";
    for (const auto c : kaffeComponents()) {
        const auto &p = res.attribution.powerOf(c);
        if (p.samples == 0)
            continue;
        std::cout << "  " << core::componentName(c) << ": "
                  << res.attribution.energyFraction(c) * 100
                  << "% of energy, avg " << p.avgCpuWatts() * unit
                  << (unit > 1 ? " mW" : " W") << ", peak "
                  << p.peakCpuWatts * unit << (unit > 1 ? " mW" : " W")
                  << "\n";
    }
    std::cout << "  classes loaded: " << res.run.classesLoaded
              << ", GC slices/cycles: " << res.run.gc.minorCollections
              << "/" << res.run.gc.majorCollections << "\n";
}

} // namespace

int
main(int argc, char **argv)
try {
    const std::string name = argc > 1 ? argv[1] : "_213_javac";
    const auto &bench = workloads::benchmark(name);

    std::cout << "Kaffe on two platforms: " << name
              << " (-s10 dataset, 16 MB nominal heap)\n\n";

    ExperimentConfig pxa;
    pxa.platform = sim::PlatformKind::Pxa255;
    pxa.vm = jvm::VmKind::Kaffe;
    pxa.collector = jvm::CollectorKind::IncrementalMS;
    pxa.dataset = workloads::DatasetScale::Small;
    pxa.heapNominalMB = 16;
    const auto onPxa = runExperiment(pxa, bench);
    describe("DBPXA255 (PXA255 @ 400 MHz, no L2)", onPxa, 1e3);

    std::cout << "\n";

    ExperimentConfig p6 = pxa;
    p6.platform = sim::PlatformKind::P6;
    const auto onP6 = runExperiment(p6, bench);
    describe("P6 (Pentium M @ 1.6 GHz)", onP6, 1.0);

    if (onPxa.ok() && onP6.ok()) {
        const double clPxa = onPxa.attribution.energyFraction(
            core::ComponentId::ClassLoader);
        const double clP6 = onP6.attribution.energyFraction(
            core::ComponentId::ClassLoader);
        std::cout << "\nthe class loader's share grows from "
                  << clP6 * 100 << "% on the P6 to " << clPxa * 100
                  << "% on the embedded board (paper Section VI-E: "
                     "improving class loading saves real energy on "
                     "embedded JVMs)\n";
    }
    return 0;
} catch (const std::invalid_argument &e) {
    std::cerr << "embedded_profile: " << e.what()
              << "\nusage: embedded_profile [benchmark]\n";
    return 2;
}
