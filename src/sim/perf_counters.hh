/**
 * @file
 * Hardware performance monitor (HPM) counter block.
 *
 * Models the event counters the paper samples through its custom HPM API
 * (Section IV-E): cycles, retired instructions, cache accesses and misses
 * at each level, and stall cycles. Counters are free-running; samplers
 * take snapshots and compute deltas, exactly as the OS-timer-driven
 * sampler in the paper does.
 */

#ifndef JAVELIN_SIM_PERF_COUNTERS_HH
#define JAVELIN_SIM_PERF_COUNTERS_HH

#include <cstdint>

namespace javelin {
namespace sim {

/**
 * Free-running event counters exposed by the simulated processor.
 */
struct PerfCounters
{
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t stallCycles = 0;
    std::uint64_t branches = 0;
    std::uint64_t branchMispredicts = 0;
    std::uint64_t l1iAccesses = 0;
    std::uint64_t l1iMisses = 0;
    std::uint64_t l1dAccesses = 0;
    std::uint64_t l1dMisses = 0;
    std::uint64_t l2Accesses = 0;
    std::uint64_t l2Misses = 0;
    /** L2 tag-array probes by the next-line prefetcher (demand traffic
     *  is not included; see MemoryHierarchy::prefetchNextLine). */
    std::uint64_t l2Probes = 0;
    std::uint64_t dramAccesses = 0;
    std::uint64_t dramWritebacks = 0;

    /** Component-wise difference (this - earlier snapshot). */
    PerfCounters operator-(const PerfCounters &rhs) const;
    PerfCounters &operator+=(const PerfCounters &rhs);

    /** Instructions per cycle over this (delta) counter block. */
    double ipc() const;

    /** L2 miss rate (misses / accesses) over this delta block. */
    double l2MissRate() const;
};

} // namespace sim
} // namespace javelin

#endif // JAVELIN_SIM_PERF_COUNTERS_HH
