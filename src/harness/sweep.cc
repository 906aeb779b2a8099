#include "harness/sweep.hh"

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <mutex>
#include <thread>

namespace javelin {
namespace harness {

void
SweepRunner::parallelFor(std::size_t n,
                         const std::function<void(std::size_t)> &fn,
                         unsigned jobs, const Progress &progress)
{
    std::atomic<std::size_t> next{0};
    std::mutex progressMutex;
    std::size_t done = 0;
    // Claim indices until none remain, reporting each completion.
    const auto drain = [&] {
        for (std::size_t i = next++; i < n; i = next++) {
            fn(i);
            if (progress) {
                std::lock_guard<std::mutex> lock(progressMutex);
                progress(++done, n);
            }
        }
    };

    jobs = resolveJobs(jobs);
    if (n == 0)
        return;
    if (jobs > n)
        jobs = static_cast<unsigned>(n);
    if (jobs <= 1) {
        // Serial path on the calling thread (JAVELIN_JOBS=1): easier to
        // debug and guaranteed free of thread scheduling entirely.
        drain();
        return;
    }

    std::vector<std::thread> workers;
    workers.reserve(jobs);
    for (unsigned t = 0; t < jobs; ++t)
        workers.emplace_back(drain);
    for (auto &w : workers)
        w.join();
}

ExperimentResult
SweepRunner::runTask(const SweepTask &task, const Executor &execute)
{
    std::string error;
    try {
        return execute ? execute(task)
                       : runExperiment(task.config, task.profile);
    } catch (const std::exception &e) {
        error = e.what();
    } catch (...) {
        error = "unknown exception";
    }
    // A failed task must not look like a successful zero-energy run:
    // stamp the task identity and the failure so report tables and
    // summaries surface it (ok() is false).
    ExperimentResult res;
    res.config = task.config;
    res.benchmark = task.profile.name;
    res.failed = true;
    res.failMessage = std::move(error);
    return res;
}

unsigned
SweepRunner::resolveJobs(unsigned requested)
{
    if (requested > 0)
        return requested;
    if (const char *env = std::getenv("JAVELIN_JOBS")) {
        unsigned parsed = 0;
        if (parseJobs(env, parsed) && parsed > 0)
            return parsed;
        std::cerr << "javelin: ignoring invalid JAVELIN_JOBS='" << env
                  << "'\n";
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

bool
SweepRunner::parseCount(const char *text, std::uint64_t &out)
{
    // strtoull alone would skip whitespace and negate a leading '-'
    // ("-1" -> ~2^64), so require a digit first.
    if (*text < '0' || *text > '9')
        return false;
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (*end != '\0' || errno == ERANGE)
        return false;
    out = v;
    return true;
}

bool
SweepRunner::parseJobs(const char *text, unsigned &jobs)
{
    std::uint64_t v = 0;
    if (!parseCount(text, v) || v > std::numeric_limits<unsigned>::max())
        return false;
    jobs = static_cast<unsigned>(v);
    return true;
}

std::uint64_t
SweepRunner::taskSeed(std::uint64_t base_seed, std::size_t index)
{
    // SplitMix64 finalizer over the (seed, index) pair: distinct,
    // well-mixed streams for every task regardless of the base seed.
    std::uint64_t z = base_seed + 0x9e3779b97f4a7c15ULL *
                                      (static_cast<std::uint64_t>(index) + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::vector<ExperimentResult>
SweepRunner::run(const std::vector<SweepTask> &tasks) const
{
    std::vector<ExperimentResult> results(tasks.size());
    parallelFor(
        tasks.size(),
        [&](std::size_t i) {
            SweepTask task = tasks[i];
            task.config.seed = taskSeed(task.config.seed, i);
            results[i] = runTask(task, config_.execute);
        },
        config_.jobs, config_.progress);
    return results;
}

SweepRunner::Progress
consoleProgress(std::string label)
{
    return [label = std::move(label)](std::size_t done,
                                      std::size_t total) {
        std::cerr << '\r' << label << ": " << done << '/' << total;
        if (done == total)
            std::cerr << '\n';
    };
}

} // namespace harness
} // namespace javelin
