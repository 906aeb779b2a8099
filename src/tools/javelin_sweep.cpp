/**
 * @file
 * javelin-sweep: the single CLI frontend for declarative, resumable
 * characterization sweeps (ROADMAP item 1).
 *
 *   javelin-sweep SCENARIO.json [options]
 *   javelin-sweep --builtin fig07-edp [options]
 *
 * Options:
 *   --out FILE         write the javelin-sweep-v1 JSON report (default
 *                      stdout)
 *   --checkpoint FILE  journal per-shard completions to FILE
 *   --resume           load FILE and re-run only missing shards
 *   --jobs N           worker threads, a non-negative integer (0 or
 *                      absent: JAVELIN_JOBS or all cores)
 *   --shard i/N        run only shards with index % N == i (multi-host
 *                      partitioning; each partition needs its own
 *                      checkpoint file)
 *   --builtin NAME     use a committed scenario instead of a file
 *   --print-scenario   print the canonical scenario JSON and exit
 *   --list-builtins    list builtin scenario names and exit
 *
 * A resumed run's report is byte-identical to an uninterrupted run:
 * per-shard seeds depend only on the global shard index, restored
 * payloads round-trip exactly, and the report orders shards by index.
 * The summary line "checkpoint: restored=R executed=E total=N" on
 * stderr is machine-parsed by the CI kill-and-resume smoke to prove
 * the checkpoint was actually consulted (E < N).
 *
 * Every shard that is not ok is listed on stderr with its shard key.
 * A simulated out-of-memory or stack-overflow run is a result of the
 * experiment, listed as such; the drivers print it as a table entry.
 *
 * Exit status: 0 every shard ran (simulated outcomes included); 1 a
 * harness or co-tenant failure, or an aborted run; 2 usage, scenario,
 * or checkpoint errors.
 */

#include <fstream>
#include <iostream>
#include <sstream>

#include "harness/job_engine.hh"
#include "harness/scenario.hh"

using namespace javelin;
using namespace javelin::harness;

namespace {

int
usage()
{
    std::cerr
        << "usage: javelin-sweep SCENARIO.json [--out FILE]\n"
           "                     [--checkpoint FILE] [--resume]\n"
           "                     [--jobs N] [--shard i/N]\n"
           "       javelin-sweep --builtin NAME [same options]\n"
           "       javelin-sweep --builtin NAME --print-scenario\n"
           "       javelin-sweep --list-builtins\n";
    return 2;
}

bool
parseShardSpec(const std::string &spec, std::size_t &index,
               std::size_t &count)
{
    const std::size_t slash = spec.find('/');
    if (slash == std::string::npos)
        return false;
    std::uint64_t i = 0;
    std::uint64_t n = 0;
    if (!SweepRunner::parseCount(spec.substr(0, slash).c_str(), i) ||
        !SweepRunner::parseCount(spec.c_str() + slash + 1, n) ||
        n == 0 || i >= n)
        return false;
    index = i;
    count = n;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string scenarioPath;
    std::string builtinName;
    std::string outPath;
    JobEngine::Config cfg;
    bool printScenario = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--out" && i + 1 < argc) {
            outPath = argv[++i];
        } else if (arg == "--checkpoint" && i + 1 < argc) {
            cfg.checkpointPath = argv[++i];
        } else if (arg == "--resume") {
            cfg.resume = true;
        } else if (arg == "--jobs" && i + 1 < argc) {
            if (!SweepRunner::parseJobs(argv[++i], cfg.jobs)) {
                std::cerr << "javelin-sweep: bad --jobs (want a "
                             "non-negative integer, 0 = auto)\n";
                return 2;
            }
        } else if (arg == "--shard" && i + 1 < argc) {
            if (!parseShardSpec(argv[++i], cfg.shardIndex,
                                cfg.shardCount)) {
                std::cerr << "javelin-sweep: bad --shard spec (want "
                             "i/N with i < N)\n";
                return 2;
            }
        } else if (arg == "--builtin" && i + 1 < argc) {
            builtinName = argv[++i];
        } else if (arg == "--print-scenario") {
            printScenario = true;
        } else if (arg == "--list-builtins") {
            for (const auto &name : builtinScenarioNames())
                std::cout << name << "\n";
            return 0;
        } else if (!arg.empty() && arg[0] != '-' &&
                   scenarioPath.empty()) {
            scenarioPath = arg;
        } else {
            return usage();
        }
    }
    if (scenarioPath.empty() == builtinName.empty())
        return usage();

    Scenario scenario;
    try {
        scenario = builtinName.empty()
                       ? parseScenarioFile(scenarioPath)
                       : builtinScenario(builtinName);
    } catch (const ScenarioError &e) {
        std::cerr << "javelin-sweep: " << e.what() << "\n";
        return 2;
    }

    if (printScenario) {
        writeScenario(std::cout, scenario);
        return 0;
    }

    const std::string hash = scenarioHash(scenario);
    const auto tasks = expandScenario(scenario);
    std::cerr << "javelin-sweep: " << scenario.name << ": "
              << tasks.size() << " shards (scenario hash " << hash
              << ")\n";

    cfg.progress = consoleProgress("javelin-sweep");
    JobReport report;
    try {
        report = JobEngine(cfg).run(tasks, scenario.name, hash);
    } catch (const JobEngineError &e) {
        std::cerr << "javelin-sweep: " << e.what() << "\n";
        return 2;
    }

    std::cerr << "javelin-sweep: checkpoint: restored="
              << report.restored << " executed=" << report.executed
              << " total=" << report.shardCount << "\n";
    // A restored record keeps only its error text, so the text tells a
    // simulated outcome from a failure.
    bool failed = report.aborted;
    for (const auto &rec : report.records) {
        if (rec.ok)
            continue;
        const bool simulated = rec.error == kOutOfMemoryError ||
                               rec.error == kStackOverflowError;
        failed |= !simulated;
        std::cerr << "javelin-sweep: shard " << rec.shard << " ["
                  << rec.key << "] "
                  << (simulated ? "result: " : "failed: ") << rec.error
                  << "\n";
    }

    if (outPath.empty()) {
        writeJobReport(std::cout, report);
    } else {
        std::ofstream out(outPath, std::ios::binary);
        if (!out) {
            std::cerr << "javelin-sweep: cannot open " << outPath
                      << "\n";
            return 2;
        }
        writeJobReport(out, report);
        std::cerr << "javelin-sweep: wrote " << outPath << "\n";
    }
    return failed ? 1 : 0;
}
