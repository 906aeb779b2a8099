/**
 * @file
 * Energy-regression ensemble report generator (ROADMAP item 4).
 *
 * Runs the committed regression matrix — a small set of (benchmark x
 * collector x heap) cells chosen to cover the GC-bound and
 * mutator-bound corners — over the pinned seed ensemble and writes the
 * versioned JSON report scripts/compare_ensemble.py gates on. The
 * committed baseline lives at bench/ENSEMBLE_energy.baseline.json;
 * regenerate it with:
 *
 *   build-release/bench/ensemble_report --out bench/ENSEMBLE_energy.baseline.json
 *
 * after any *intentional* model change, and say so in the commit (the
 * same protocol as the golden runs). The report is deterministic for a
 * fixed seed list at any JAVELIN_JOBS setting. A cell with a failed
 * member is listed on stderr and nothing is written (exit 1).
 *
 * The matrix is the builtin "ensemble-regression" scenario, pinned as
 * tests/fixtures/ensemble_regression.scenario.json; `javelin-sweep
 * --builtin ensemble-regression --print-scenario` prints it, and
 * javelin-sweep runs any other scenario file.
 */

#include <fstream>
#include <iostream>

#include "harness/ensemble.hh"
#include "harness/scenario.hh"

using namespace javelin;
using namespace javelin::harness;

namespace {

int
usage()
{
    std::cerr << "usage: ensemble_report [--out FILE] "
                 "[--seeds 1,2,...]\n";
    return 2;
}

/**
 * Parse a comma-separated seed list; every item must be a count
 * (SweepRunner::parseCount), so "", "1,,2", "-1" and "abc" all fail.
 */
bool
parseSeeds(const std::string &csv, std::vector<std::uint64_t> &seeds)
{
    seeds.clear();
    for (std::size_t pos = 0;;) {
        const std::size_t comma = csv.find(',', pos);
        std::uint64_t seed = 0;
        if (!SweepRunner::parseCount(
                csv.substr(pos, comma - pos).c_str(), seed))
            return false;
        seeds.push_back(seed);
        if (comma == std::string::npos)
            return true;
        pos = comma + 1;
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::string outPath;
    EnsembleConfig cfg;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--out" && i + 1 < argc) {
            outPath = argv[++i];
        } else if (arg == "--seeds" && i + 1 < argc) {
            if (!parseSeeds(argv[++i], cfg.seeds)) {
                std::cerr << "ensemble_report: bad --seeds (want "
                             "comma-separated non-negative integers)\n";
                return usage();
            }
        } else {
            return usage();
        }
    }

    cfg.progress = consoleProgress("ensemble");
    const auto cells =
        expandScenario(builtinScenario("ensemble-regression"));
    const auto results = EnsembleRunner(cfg).run(cells);
    if (reportEnsembleFailures(std::cerr, results) > 0)
        return 1;

    for (const auto &cell : results) {
        const auto *total = cell.metric("total_joules");
        std::cerr << cell.key << ": total "
                  << total->ci.point << " J  [" << total->ci.lo << ", "
                  << total->ci.hi << "] @" << total->ci.confidence
                  << "\n";
    }

    if (outPath.empty()) {
        writeEnsembleReport(std::cout, results, cfg);
    } else {
        std::ofstream out(outPath);
        if (!out) {
            std::cerr << "ensemble_report: cannot open " << outPath
                      << "\n";
            return 1;
        }
        writeEnsembleReport(out, results, cfg);
        std::cerr << "wrote " << outPath << "\n";
    }
    return 0;
}
