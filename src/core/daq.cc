#include "core/daq.hh"

#include "util/logging.hh"

namespace javelin {
namespace core {

namespace {

/** Samples preallocated for the in-memory trace. */
constexpr std::size_t kTraceReserve = 1 << 16;

} // namespace

Daq::Daq(sim::System &system, ComponentPort &port)
    : Daq(system, port, Config())
{
}

Daq::Daq(sim::System &system, ComponentPort &port, const Config &config)
    : system_(system), port_(port), period_(system.spec().daqPeriod),
      cpuSense_(config.cpuSense), memSense_(config.memSense),
      spool_(config.spool)
{
    JAVELIN_ASSERT(period_ > 0, "DAQ period must be positive");
    if (spool_)
        JAVELIN_ASSERT(spool_->kind() == tracefmt::RecordKind::Power,
                       "DAQ spool must carry power records");
    trace_.reserve(kTraceReserve);
    refTick_ = system_.cpu().now();
    // Snapshot the energy baseline at attach time: a DAQ connected to a
    // warm system must not attribute pre-attach energy to its first
    // sample window.
    system_.syncPower();
    refCpuJoules_ = system_.power().cumulativeJoules();
    refMemJoules_ = system_.memoryPower().cumulativeJoules();
    lastCpuWatts_ = system_.power().idleWatts();
    lastMemWatts_ = system_.memoryPower().config().idleWatts;
    system_.addPeriodicTask("daq", period_,
                            [this](Tick now) { sample(now); });
}

void
Daq::sample(Tick now)
{
    if (stopped_)
        return;
    system_.syncPower();
    const Tick actual = system_.cpu().now();

    const double cpuJ = system_.power().cumulativeJoules();
    const double memJ = system_.memoryPower().cumulativeJoules();

    PowerSample s;
    s.tick = now;
    s.component = port_.current();
    if (actual > refTick_) {
        const Tick window = actual - refTick_;
        const double dt = ticksToSeconds(window);
        const double trueCpuW = (cpuJ - refCpuJoules_) / dt;
        const double trueMemW = (memJ - refMemJoules_) / dt;
        s.windowTicks = window;
        s.cpuWatts = cpuSense_.measureWatts(trueCpuW,
                                            system_.power().railVolts());
        s.memWatts =
            memSense_.measureWatts(trueMemW,
                                   system_.memoryPower().railVolts());
        lastCpuWatts_ = s.cpuWatts;
        lastMemWatts_ = s.memWatts;
    } else {
        // Catch-up tick inside a burst (the simulation polled late):
        // the best estimate for every sample in the gap is the gap's
        // window average, which the first tick of the burst computed.
        // That first tick already integrated the whole gap, so these
        // samples cover zero additional time: windowTicks stays 0 and
        // they contribute no energy, only trace shape.
        s.windowTicks = 0;
        s.cpuWatts = lastCpuWatts_;
        s.memWatts = lastMemWatts_;
    }
    trace_.push_back(s);
    if (spool_)
        spool_->append(s);

    refCpuJoules_ = cpuJ;
    refMemJoules_ = memJ;
    refTick_ = actual;
}

void
Daq::stop()
{
    if (stopped_)
        return;
    // The final partial window [refTick_, now) goes through the exact
    // periodic-sample path, so it joins the trace (and the measured
    // totals) as an on-schedule sample would. A stop that lands
    // exactly on a sample boundary has nothing to flush.
    system_.syncPower();
    if (system_.cpu().now() > refTick_)
        sample(system_.cpu().now());
    stopped_ = true;
}

double
Daq::measuredCpuJoules() const
{
    return integrateCpuJoules(trace_);
}

double
Daq::measuredMemJoules() const
{
    return integrateMemJoules(trace_);
}

} // namespace core
} // namespace javelin
