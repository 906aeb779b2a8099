#include "core/ground_truth.hh"

#include "util/logging.hh"

namespace javelin {
namespace core {

GroundTruthAccountant::GroundTruthAccountant(sim::System &system,
                                             ComponentPort &port)
    : system_(system), port_(port)
{
    refTick_ = system_.cpu().now();
    refCounters_ = system_.counters();
    observer_ = port_.addObserver(
        [this](ComponentId prev, ComponentId, Tick) { onSwitch(prev); });
}

void
GroundTruthAccountant::accumulate(ComponentId id)
{
    system_.syncPower();
    const double cpuJ = system_.power().cumulativeJoules();
    const double memJ = system_.memoryPower().cumulativeJoules();
    const Tick now = system_.cpu().now();
    const sim::PerfCounters counters = system_.counters();

    Slice &s = slices_[componentIndex(id)];
    s.cpuJoules += cpuJ - refCpuJ_;
    s.memJoules += memJ - refMemJ_;
    s.time += now - refTick_;
    s.counters += counters - refCounters_;

    refCpuJ_ = cpuJ;
    refMemJ_ = memJ;
    refTick_ = now;
    refCounters_ = counters;
}

void
GroundTruthAccountant::onSwitch(ComponentId prev)
{
    JAVELIN_ASSERT(!finalized_, "switch after finalize");
    accumulate(prev);
}

void
GroundTruthAccountant::finalize()
{
    if (finalized_)
        return;
    accumulate(port_.current());
    finalized_ = true;
}

const GroundTruthAccountant::Slice &
GroundTruthAccountant::slice(ComponentId id) const
{
    return slices_[componentIndex(id)];
}

double
GroundTruthAccountant::totalCpuJoules() const
{
    double j = 0.0;
    for (const auto &s : slices_)
        j += s.cpuJoules;
    return j;
}

double
GroundTruthAccountant::totalMemJoules() const
{
    double j = 0.0;
    for (const auto &s : slices_)
        j += s.memJoules;
    return j;
}

Tick
GroundTruthAccountant::totalTime() const
{
    Tick t = 0;
    for (const auto &s : slices_)
        t += s.time;
    return t;
}

} // namespace core
} // namespace javelin
