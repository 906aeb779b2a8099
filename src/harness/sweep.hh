/**
 * @file
 * The executor core under every sweep front end.
 *
 * The paper's headline results are full-factorial sweeps (benchmarks x
 * collectors x heap sizes); every run constructs an independent
 * sim::System, so the sweep is embarrassingly parallel. Two primitives
 * carry all of it:
 *
 *  - SweepRunner::parallelFor is the one worker pool: it claims
 *    indices from an atomic cursor and reports (done, total) to an
 *    optional progress callback under a lock;
 *  - SweepRunner::runTask is the one task runner: it never throws; an
 *    exception escaping the executor becomes a failed ExperimentResult
 *    stamped with the task's config and benchmark, whose error() is
 *    the failure text every front end reports.
 *
 * SweepRunner::run (the figure drivers), JobEngine::run (javelin-sweep,
 * journaled and resumable) and EnsembleRunner::run (seed ensembles)
 * are thin front ends over the two. SweepRunner::run returns one
 * ExperimentResult per task in input order, bit-identical whether the
 * sweep runs serially or in parallel: each task's config seed is
 * re-derived from (config.seed, task index) with taskSeed().
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

/**
 * Thread-pool sweep engine. Stateless between run() calls; one instance
 * can be reused for several sweeps.
 */
class SweepRunner
{
  public:
    /** Progress callback: (completed tasks, total tasks). */
    using Progress = std::function<void(std::size_t, std::size_t)>;
    /** Task executor: runs one task whose seed is already final. */
    using Executor = std::function<ExperimentResult(const SweepTask &)>;

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
        Executor execute;
    };

    SweepRunner() = default;
    explicit SweepRunner(Config config) : config_(std::move(config)) {}

    /**
     * Run every task and return one result per task, in input order.
     * Results are bit-identical for any worker count: the per-task
     * seed depends only on (task.config.seed, index), and each task
     * simulates a private sim::System. A task whose executor threw
     * comes back failed (see runTask), never as a zero-energy run.
     */
    std::vector<ExperimentResult>
    run(const std::vector<SweepTask> &tasks) const;

    /**
     * The worker pool: run fn(i) for every i in [0, n) on `jobs`
     * workers (0 = resolveJobs policy; one worker runs on the calling
     * thread), then return. progress, if set, is called under a lock
     * after every index. fn must only touch state private to its
     * index, or guard what it shares.
     */
    static void parallelFor(std::size_t n,
                            const std::function<void(std::size_t)> &fn,
                            unsigned jobs = 0,
                            const Progress &progress = nullptr);

    /**
     * The task runner: execute(task), or runExperiment when execute is
     * null. Never throws: an escaping exception becomes a result with
     * failed set, failMessage the exception text, and config and
     * benchmark stamped from the task.
     */
    static ExperimentResult runTask(const SweepTask &task,
                                    const Executor &execute);

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

/**
 * Progress callback that rewrites a "label: done/total" line on stderr
 * (and finishes the line when the sweep completes).
 */
SweepRunner::Progress consoleProgress(std::string label);

} // namespace harness
} // namespace javelin

#endif // JAVELIN_HARNESS_SWEEP_HH
