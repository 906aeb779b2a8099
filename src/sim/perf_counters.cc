#include "sim/perf_counters.hh"

namespace javelin {
namespace sim {

PerfCounters
PerfCounters::operator-(const PerfCounters &rhs) const
{
    PerfCounters d;
    d.cycles = cycles - rhs.cycles;
    d.instructions = instructions - rhs.instructions;
    d.stallCycles = stallCycles - rhs.stallCycles;
    d.branches = branches - rhs.branches;
    d.branchMispredicts = branchMispredicts - rhs.branchMispredicts;
    d.l1iAccesses = l1iAccesses - rhs.l1iAccesses;
    d.l1iMisses = l1iMisses - rhs.l1iMisses;
    d.l1dAccesses = l1dAccesses - rhs.l1dAccesses;
    d.l1dMisses = l1dMisses - rhs.l1dMisses;
    d.l2Accesses = l2Accesses - rhs.l2Accesses;
    d.l2Misses = l2Misses - rhs.l2Misses;
    d.l2Probes = l2Probes - rhs.l2Probes;
    d.dramAccesses = dramAccesses - rhs.dramAccesses;
    d.dramWritebacks = dramWritebacks - rhs.dramWritebacks;
    return d;
}

PerfCounters &
PerfCounters::operator+=(const PerfCounters &rhs)
{
    cycles += rhs.cycles;
    instructions += rhs.instructions;
    stallCycles += rhs.stallCycles;
    branches += rhs.branches;
    branchMispredicts += rhs.branchMispredicts;
    l1iAccesses += rhs.l1iAccesses;
    l1iMisses += rhs.l1iMisses;
    l1dAccesses += rhs.l1dAccesses;
    l1dMisses += rhs.l1dMisses;
    l2Accesses += rhs.l2Accesses;
    l2Misses += rhs.l2Misses;
    l2Probes += rhs.l2Probes;
    dramAccesses += rhs.dramAccesses;
    dramWritebacks += rhs.dramWritebacks;
    return *this;
}

double
PerfCounters::ipc() const
{
    return cycles ? static_cast<double>(instructions) /
                    static_cast<double>(cycles)
                  : 0.0;
}

double
PerfCounters::l2MissRate() const
{
    return l2Accesses ? static_cast<double>(l2Misses) /
                        static_cast<double>(l2Accesses)
                      : 0.0;
}

} // namespace sim
} // namespace javelin
