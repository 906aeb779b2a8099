/**
 * @file
 * Parallel experiment-sweep engine.
 *
 * The paper's headline results are full-factorial sweeps (benchmarks x
 * collectors x heap sizes); every run constructs an independent
 * sim::System, so the sweep is embarrassingly parallel. SweepRunner
 * fans a task list out across a pool of worker threads and returns the
 * results in deterministic input order:
 *
 *  - each task's config seed is re-derived from (config.seed, task
 *    index) with taskSeed(), so noise streams are independent per task
 *    and identical whether the sweep runs serially or in parallel;
 *  - an exception escaping one task is captured into that outcome's
 *    SweepError instead of aborting the whole sweep;
 *  - an optional progress callback reports completed/total counts for
 *    long runs.
 *
 * The worker count defaults to std::thread::hardware_concurrency() and
 * can be overridden with Config::jobs or the JAVELIN_JOBS environment
 * variable (JAVELIN_JOBS=1 forces serial execution for debugging).
 */

#ifndef JAVELIN_HARNESS_SWEEP_HH
#define JAVELIN_HARNESS_SWEEP_HH

#include <functional>
#include <string>
#include <vector>

#include "harness/experiment.hh"

namespace javelin {
namespace harness {

/** One unit of sweep work: run one benchmark under one configuration. */
struct SweepTask
{
    ExperimentConfig config;
    workloads::BenchmarkProfile profile;
};

/** Failure record for one task (empty message means the task ran). */
struct SweepError
{
    bool failed = false;
    std::string message;

    explicit operator bool() const { return failed; }
};

/** Result slot for one task, in the same position as its input. */
struct SweepOutcome
{
    ExperimentResult result;
    SweepError error;

    /** Ran to completion and the simulated run itself succeeded. */
    bool ok() const { return !error.failed && result.ok(); }
};

/**
 * Thread-pool sweep engine. Stateless between run() calls; one instance
 * can be reused for several sweeps.
 */
class SweepRunner
{
  public:
    /** Progress callback: (completed tasks, total tasks). */
    using Progress = std::function<void(std::size_t, std::size_t)>;

    struct Config
    {
        /**
         * Worker threads: 0 means auto (the JAVELIN_JOBS environment
         * variable if set, else std::thread::hardware_concurrency()).
         */
        unsigned jobs = 0;
        /** Called (under a lock) after every completed task. */
        Progress progress;
        /**
         * Task executor; defaults to runExperiment. A custom executor
         * supports study-specific rigs and failure-injection tests.
         */
        std::function<ExperimentResult(const SweepTask &)> execute;
    };

    SweepRunner() = default;
    explicit SweepRunner(Config config) : config_(std::move(config)) {}

    /**
     * Run every task and return outcomes in input order. Results are
     * bit-identical for any worker count: the per-task seed depends
     * only on (task.config.seed, index), and each task simulates a
     * private sim::System.
     */
    std::vector<SweepOutcome> run(const std::vector<SweepTask> &tasks) const;

    /**
     * Generic parallel loop over [0, n) using the same worker policy,
     * for sweeps that do not fit the ExperimentConfig mould (custom
     * rigs like the thermal studies). fn must only touch state private
     * to its index.
     */
    static void parallelFor(std::size_t n,
                            const std::function<void(std::size_t)> &fn,
                            unsigned jobs = 0);

    /**
     * Resolve a worker count: requested if nonzero, else JAVELIN_JOBS,
     * else hardware concurrency (at least 1).
     */
    static unsigned resolveJobs(unsigned requested);

    /**
     * Parse a count as the JAVELIN_* variables and javelin-sweep's
     * numeric arguments spell it: decimal digits only (a sign or a
     * leading blank is invalid, not negated or skipped), fitting a
     * std::uint64_t. False on anything else, leaving `out` untouched.
     */
    static bool parseCount(const char *text, std::uint64_t &out);

    /** parseCount for a worker count, which must also fit an
     *  unsigned; 0 is accepted. */
    static bool parseJobs(const char *text, unsigned &jobs);

    /**
     * Deterministic per-task seed: a SplitMix64-style mix of the base
     * config seed and the task's position in the sweep. Serial loops
     * that must reproduce SweepRunner results apply the same mix.
     */
    static std::uint64_t taskSeed(std::uint64_t base_seed,
                                  std::size_t index);

  private:
    Config config_;
};

/** Convenience: run tasks with a default-configured runner. */
std::vector<SweepOutcome> runSweep(const std::vector<SweepTask> &tasks,
                                   unsigned jobs = 0);

/**
 * Progress callback that rewrites a "label: done/total" line on stderr
 * (and finishes the line when the sweep completes).
 */
SweepRunner::Progress consoleProgress(std::string label);

} // namespace harness
} // namespace javelin

#endif // JAVELIN_HARNESS_SWEEP_HH
