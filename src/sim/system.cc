#include "sim/system.hh"

#include <algorithm>

#include "util/logging.hh"

namespace javelin {
namespace sim {

System::System(const PlatformSpec &spec)
    : spec_(spec), memory_(spec.memory, counters_),
      cpu_(spec.cpu, memory_, counters_), power_(spec.power),
      memPower_(spec.memPower), thermal_(spec.thermal),
      dvfs_(*this, spec.dvfsPoints)
{
    addPeriodicTask(spec_.thermalPeriod,
                    [this](Tick now) { thermalStep(now); });
}

System::TaskId
System::addPeriodicTask(Tick period, TaskFn fn)
{
    JAVELIN_ASSERT(period > 0, "periodic task needs a positive period");
    TaskEntry entry{++lastTaskId_, period, cpu_.now() + period,
                    std::move(fn)};
    tasks_.push_back(std::move(entry));
    recomputeNextDue();
    return lastTaskId_;
}

void
System::removePeriodicTask(TaskId id)
{
    const auto it = std::find_if(tasks_.begin(), tasks_.end(),
                                 [id](const TaskEntry &t) {
                                     return t.id == id;
                                 });
    JAVELIN_ASSERT(it != tasks_.end(), "no periodic task with id ", id);
    tasks_.erase(it);
    recomputeNextDue();
}

void
System::recomputeNextDue()
{
    nextDue_ = std::numeric_limits<Tick>::max();
    for (const auto &t : tasks_)
        nextDue_ = std::min(nextDue_, t.next);
}

void
System::runDueTasks()
{
    const Tick now = cpu_.now();
    for (auto &t : tasks_) {
        while (t.next <= now) {
            const Tick scheduled = t.next;
            // Advance the deadline before firing so a task observing
            // poll() re-entrantly cannot fire itself twice.
            t.next += t.period;
            t.fn(scheduled);
        }
    }
    recomputeNextDue();
}

void
System::syncPower()
{
    cpu_.materializeCounters();
    power_.update(counters_, cpu_.now());
    memPower_.update(counters_, cpu_.now());
}

double
System::cpuJoules()
{
    syncPower();
    return power_.cumulativeJoules();
}

double
System::memoryJoules()
{
    syncPower();
    return memPower_.cumulativeJoules();
}

void
System::applyOperatingPoint(const OperatingPoint &point)
{
    // Integrate energy at the old settings up to this instant first so
    // the change does not retroactively re-price past activity.
    syncPower();
    cpu_.setFrequency(point.freqHz);
    power_.setFrequency(point.freqHz);
    power_.setVoltage(point.volts);
}

void
System::idleFor(Tick duration)
{
    const Tick end = cpu_.now() + duration;
    while (cpu_.now() < end) {
        const Tick step = std::min<Tick>(end - cpu_.now(),
                                         spec_.thermalPeriod);
        cpu_.idleFor(step);
        poll();
    }
}

void
System::thermalStep(Tick now)
{
    syncPower();
    const double joules = power_.cumulativeJoules();
    if (now > thermalRefTick_) {
        const double watts =
            (joules - thermalRefJoules_) / ticksToSeconds(now -
                                                          thermalRefTick_);
        const bool changed =
            thermal_.step(watts, ticksToSeconds(now - thermalRefTick_));
        if (changed)
            cpu_.setDutyCycle(thermal_.requestedDuty());
    }
    thermalRefJoules_ = joules;
    thermalRefTick_ = now;
}

DvfsController::DvfsController(System &system,
                               std::vector<OperatingPoint> points)
    : system_(system), points_(std::move(points)),
      current_(points_.empty() ? 0 : points_.size() - 1)
{
    // Apply the boot operating point so the CPU and power models agree
    // with current() from tick zero; otherwise a spec whose nominal
    // frequency/voltage differs from the top operating point would run
    // at settings dvfs().current() does not report until the first
    // set().
    if (!points_.empty()) {
        system_.applyOperatingPoint(points_[current_]);
        JAVELIN_ASSERT(system_.cpu().frequency() ==
                           points_[current_].freqHz,
                       "DVFS boot point not applied to the CPU model");
        JAVELIN_ASSERT(system_.power().voltage() ==
                           points_[current_].volts,
                       "DVFS boot point not applied to the power model");
    }
}

void
DvfsController::set(std::size_t index)
{
    JAVELIN_ASSERT(index < points_.size(), "bad operating point index");
    current_ = index;
    system_.applyOperatingPoint(points_[current_]);
}

void
DvfsController::up()
{
    if (current_ + 1 < points_.size())
        set(current_ + 1);
}

void
DvfsController::down()
{
    if (current_ > 0)
        set(current_ - 1);
}

} // namespace sim
} // namespace javelin
