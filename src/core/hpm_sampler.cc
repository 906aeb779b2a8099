#include "core/hpm_sampler.hh"

#include "util/logging.hh"

namespace javelin {
namespace core {

namespace {

/** Samples preallocated for the in-memory trace. */
constexpr std::size_t kTraceReserve = 1 << 12;

} // namespace

HpmSampler::HpmSampler(sim::System &system, ComponentPort &port)
    : HpmSampler(system, port, Config())
{
}

HpmSampler::HpmSampler(sim::System &system, ComponentPort &port,
                       const Config &config)
    : system_(system), port_(port), period_(system.spec().hpmPeriod),
      isrCostCycles_(config.isrCostCycles)
{
    JAVELIN_ASSERT(period_ > 0, "HPM period must be positive");
    trace_.reserve(kTraceReserve);
    last_ = system_.counters();
    task_ = system_.addPeriodicTask(period_,
                                    [this](Tick now) { sample(now); });
}

void
HpmSampler::stop()
{
    if (stopped_)
        return;
    stopped_ = true;
    const sim::PerfCounters current = system_.counters();
    if (current.cycles == last_.cycles)
        return; // on-boundary stop: nothing accumulated to flush
    PerfSample s;
    s.tick = system_.cpu().now();
    s.component = port_.current();
    s.delta = current - last_;
    trace_.push_back(s);
    last_ = current;
}

void
HpmSampler::sample(Tick now)
{
    if (stopped_)
        return;
    // Charge the ISR before reading: the counter snapshot then includes
    // the sampler's own work, exactly as a real OS-timer handler would.
    if (isrCostCycles_ > 0.0)
        system_.cpu().stall(isrCostCycles_);
    const sim::PerfCounters current = system_.counters();
    PerfSample s;
    s.tick = now;
    s.component = port_.current();
    s.delta = current - last_;
    trace_.push_back(s);
    last_ = current;
}

} // namespace core
} // namespace javelin
