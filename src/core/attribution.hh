/**
 * @file
 * Offline analysis of the power and performance traces (paper Fig. 4,
 * right block): per-component energy, average power, peak power, and
 * per-component performance-counter aggregates (IPC, miss rates).
 */

#ifndef JAVELIN_CORE_ATTRIBUTION_HH
#define JAVELIN_CORE_ATTRIBUTION_HH

#include <array>

#include "core/traces.hh"

namespace javelin {
namespace core {

/** Per-component power/energy aggregate from a sampled PowerTrace. */
struct ComponentPowerStats
{
    double cpuJoules = 0.0;
    double memJoules = 0.0;
    /** Attributed running time (sum of actual sample windows). */
    double seconds = 0.0;
    double peakCpuWatts = 0.0;
    std::uint64_t samples = 0;

    double
    avgCpuWatts() const
    {
        return seconds > 0 ? cpuJoules / seconds : 0.0;
    }
};

/** Per-component performance aggregate from a sampled PerfTrace. */
struct ComponentPerfStats
{
    sim::PerfCounters counters;
    std::uint64_t samples = 0;

    double ipc() const { return counters.ipc(); }
    double l2MissRate() const { return counters.l2MissRate(); }
};

/**
 * Complete offline attribution result for one run.
 */
struct Attribution
{
    std::array<ComponentPowerStats, kNumComponents> power;
    std::array<ComponentPerfStats, kNumComponents> perf;

    double totalCpuJoules = 0.0;
    double totalMemJoules = 0.0;
    double totalSeconds = 0.0;
    double peakCpuWatts = 0.0;

    const ComponentPowerStats &
    powerOf(ComponentId id) const
    {
        return power[componentIndex(id)];
    }
    const ComponentPerfStats &
    perfOf(ComponentId id) const
    {
        return perf[componentIndex(id)];
    }

    /** Fraction of total CPU energy attributed to one component. */
    double energyFraction(ComponentId id) const;

    /** Fraction of CPU energy spent in JVM service components. */
    double jvmEnergyFraction() const;

    /** Total system energy (CPU + memory). */
    double
    totalJoules() const
    {
        return totalCpuJoules + totalMemJoules;
    }
};

/**
 * Build an Attribution from the sampled traces.
 *
 * Each power sample is integrated over its own windowTicks (the time it
 * actually averaged), so bursty traces with non-uniform windows — and
 * zero-length catch-up samples — account energy exactly once.
 *
 * @param power_trace DAQ samples
 * @param perf_trace HPM samples (may be empty)
 */
Attribution attribute(const PowerTrace &power_trace,
                      const PerfTrace &perf_trace);

} // namespace core
} // namespace javelin

#endif // JAVELIN_CORE_ATTRIBUTION_HH
