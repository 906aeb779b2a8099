/**
 * @file
 * Reproduces paper Fig. 7: total-benchmark energy-delay product as a
 * function of heap size (32-128 MB) for the four Jikes RVM collectors
 * over all 16 benchmarks.
 *
 * Expected shape (Section VI-B): generational collectors win at small
 * heaps (GenMS improves on SemiSpace by up to 70% for _213_javac at
 * 32 MB); non-generational collectors close the gap as the heap grows;
 * _209_db is the exception where SemiSpace overtakes GenCopy at 128 MB
 * thanks to mutator locality; SemiSpace sees steep EDP drops from 32 to
 * 48 MB (56%/50%/27% for javac/mtrt/euler) where GenCopy barely moves.
 */

#include <iostream>

#include "core/energy_accounting.hh"
#include "harness/experiment.hh"
#include "harness/report.hh"
#include "harness/scenario.hh"
#include "harness/sweep.hh"

using namespace javelin;
using namespace javelin::harness;

int
main(int argc, char **argv)
{
    // The sweep is data, not code: the builtin "fig07-edp" scenario is
    // the matrix (the committed copy is
    // tests/fixtures/fig07_edp.scenario.json; `javelin-sweep --builtin
    // fig07-edp --print-scenario` prints it).
    Scenario scenario = builtinScenario("fig07-edp");
    std::string traceDir;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--trace-dir" && i + 1 < argc) {
            traceDir = argv[++i];
            continue;
        }
        std::cerr << "usage: fig07_edp_collectors [--trace-dir DIR]\n";
        return 2;
    }

    std::vector<workloads::BenchmarkProfile> benches;
    for (const auto &name : scenario.benchmarks)
        benches.push_back(workloads::benchmark(name));
    const auto &collectors = scenario.collectors;
    const auto &heaps = scenario.heapsMB;

    auto tasks = expandScenario(scenario);
    // Per-shard trace directories: host-side capture only, so the
    // shard key (not the config hash) names each run's traces.
    if (!traceDir.empty())
        for (auto &task : tasks)
            task.config.traceSpoolDir =
                traceDir + "/" + shardKey(task);
    SweepRunner::Config rc;
    rc.progress = consoleProgress("fig07 sweep");
    const auto results = SweepRunner(rc).run(tasks);
    if (reportSweepFailures(std::cerr, tasks, results) > 0)
        return 1;

    std::vector<std::vector<ExperimentResult>> rows;
    for (std::size_t i = 0; i < results.size(); i += heaps.size()) {
        std::vector<ExperimentResult> row;
        for (std::size_t h = 0; h < heaps.size(); ++h)
            row.push_back(results[i + h]);
        rows.push_back(std::move(row));
    }

    std::cout << "=== Fig. 7: EDP (mJ*s at study scale) vs heap size, "
                 "Jikes RVM, P6 ===\n\n";
    edpTable(rows, heaps).print(std::cout);

    // Scalar claims from Section VI-B.
    const auto edpOf = [&](const std::string &name,
                           jvm::CollectorKind kind, std::uint32_t heap) {
        for (std::size_t b = 0; b < benches.size(); ++b)
            for (std::size_t c = 0; c < collectors.size(); ++c)
                if (benches[b].name == name && collectors[c] == kind)
                    for (std::size_t h = 0; h < heaps.size(); ++h)
                        if (heaps[h] == heap) {
                            const auto &r =
                                rows[b * collectors.size() + c][h];
                            return r.ok() ? r.edp() : -1.0;
                        }
        return -1.0;
    };

    std::cout << "\nsummary (paper expectations in parentheses):\n";
    const double ssJavac32 =
        edpOf("_213_javac", jvm::CollectorKind::SemiSpace, 32);
    const double genmsJavac32 =
        edpOf("_213_javac", jvm::CollectorKind::GenMS, 32);
    if (ssJavac32 > 0 && genmsJavac32 > 0)
        std::cout << "  javac@32MB GenMS vs SemiSpace EDP improvement: "
                  << core::relativeImprovement(ssJavac32, genmsJavac32)
                         * 100 << "%  (~70%)\n";
    for (const auto &[name, gcExp, ssExp] :
         {std::tuple<const char *, double, double>{"_213_javac", 20, 56},
          {"_227_mtrt", 2, 50},
          {"euler", 3, 27}}) {
        const double ss32 =
            edpOf(name, jvm::CollectorKind::SemiSpace, 32);
        const double ss48 =
            edpOf(name, jvm::CollectorKind::SemiSpace, 48);
        const double gc32 =
            edpOf(name, jvm::CollectorKind::GenCopy, 32);
        const double gc48 =
            edpOf(name, jvm::CollectorKind::GenCopy, 48);
        if (ss32 > 0 && ss48 > 0 && gc32 > 0 && gc48 > 0)
            std::cout << "  " << name << " 32->48MB EDP drop: SemiSpace "
                      << core::relativeImprovement(ss32, ss48) * 100
                      << "% (" << ssExp << "%), GenCopy "
                      << core::relativeImprovement(gc32, gc48) * 100
                      << "% (" << gcExp << "%)\n";
    }
    const double ssDb128 =
        edpOf("_209_db", jvm::CollectorKind::SemiSpace, 128);
    const double gcDb128 =
        edpOf("_209_db", jvm::CollectorKind::GenCopy, 128);
    if (ssDb128 > 0 && gcDb128 > 0)
        std::cout << "  _209_db@128MB SemiSpace vs GenCopy EDP: "
                  << core::relativeImprovement(gcDb128, ssDb128) * 100
                  << "% better for SemiSpace  (~5%)\n";
    return 0;
}
