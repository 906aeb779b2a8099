/**
 * @file
 * The benchmark's workloads and the passes that measure them.
 *
 * A pass is one complete execution of a workload, in one of three
 * modes:
 *
 *  - Plain: what users run. Single-run workloads call
 *    harness::runExperiment; the sweep calls harness::JobEngine::run
 *    with a checkpoint journal and a result store. End-to-end metrics
 *    come only from plain passes.
 *  - Traced: the same work with host-time spans. Single runs rebuild
 *    runExperiment's pipeline from the public constructors and attach
 *    a ComponentClock to the component port; the sweep times every
 *    shard inside JobEngine::Config::execute on its worker thread.
 *  - Detached: single runs only; the rebuilt pipeline without the DAQ,
 *    HPM sampler and ground-truth accountant, so their host cost can
 *    be measured as a difference of wall times.
 *
 * Every pass checks its results (ExperimentResult::ok(), measured
 * joules against ground truth) and returns fingerprints of its
 * simulated outputs; the caller compares them across passes.
 */

#ifndef JAVELIN_PERFBENCH_PASSES_HH
#define JAVELIN_PERFBENCH_PASSES_HH

#include <map>
#include <string>
#include <vector>

#include "harness/sweep.hh"

namespace javelin {
namespace perfbench {

enum class Mode { Plain, Traced, Detached };

/** Parse "plain" / "traced" / "detached"; false if unknown. */
bool parseMode(const std::string &name, Mode *out);

/** One named workload, fully determined by (name, seed, tiny). */
struct Workload
{
    std::string name;
    /** One task for a single run; the shard list for the sweep. */
    std::vector<harness::SweepTask> tasks;
    bool sweep = false;
    /** Worker threads for the sweep: min(nproc, 4). */
    unsigned workers = 1;
};

/**
 * Build a workload. The seed sets both every benchmark profile's seed
 * (so it changes the generated program) and ExperimentConfig::seed.
 * `tiny` shrinks every workload to a smoke-test size. Throws
 * std::invalid_argument for an unknown name.
 */
Workload makeWorkload(const std::string &name, std::uint64_t seed,
                      bool tiny);

/**
 * Correctness checks every run must pass; returns an empty string or
 * the first failure.
 */
std::string checkResult(const harness::ExperimentResult &res);

/** The measured outcome of one pass. */
struct PassRecord
{
    /** Runs or shards attempted, and how many failed a check. */
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;
    /** Bytecodes, return value, end tick and PerfCounters. */
    std::string simFingerprint;
    /** simFingerprint plus GC stats and measured/ground-truth joules;
     *  for the sweep, the writeJobReport bytes. */
    std::string fullFingerprint;
    /** Named measurements (seconds, counts, ratios). */
    std::map<std::string, double> values;
    /** Stage or shard spans: name, start, end (host seconds). */
    struct Span
    {
        std::string name;
        double start = 0.0;
        double end = 0.0;
    };
    std::vector<Span> spans;
};

/**
 * Run one pass. `workdir` receives the sweep's journal and result
 * store, which are removed again before returning.
 */
PassRecord runPass(const Workload &workload, Mode mode,
                   const std::string &workdir);

} // namespace perfbench
} // namespace javelin

#endif // JAVELIN_PERFBENCH_PASSES_HH
