/**
 * @file
 * The simulated system under test: one platform's CPU, memory hierarchy,
 * power models and thermal package, plus a registry of periodic tasks
 * (the DAQ sampler, the HPM sampler, the OS scheduler timer) that fire as
 * simulated time advances.
 *
 * The execution layer (the JVM) calls poll() at bytecode boundaries; any
 * task whose deadline has passed fires then, which mirrors the timer
 * jitter a real OS-timer-driven sampler experiences.
 */

#ifndef JAVELIN_SIM_SYSTEM_HH
#define JAVELIN_SIM_SYSTEM_HH

#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "sim/cpu_model.hh"
#include "sim/dvfs.hh"
#include "sim/memory_hierarchy.hh"
#include "sim/memory_power.hh"
#include "sim/platform.hh"
#include "sim/power_model.hh"
#include "sim/thermal.hh"

namespace javelin {
namespace sim {

/**
 * A fully-assembled simulated platform instance.
 */
class System
{
  public:
    using TaskFn = std::function<void(Tick)>;
    /** Handle of a registered periodic task; never 0. */
    using TaskId = std::uint64_t;

    explicit System(const PlatformSpec &spec);

    CpuModel &cpu() { return cpu_; }
    const CpuModel &cpu() const { return cpu_; }
    MemoryHierarchy &memory() { return memory_; }
    PowerModel &power() { return power_; }
    const PowerModel &power() const { return power_; }
    MemoryPowerModel &memoryPower() { return memPower_; }
    const MemoryPowerModel &memoryPower() const { return memPower_; }
    ThermalModel &thermal() { return thermal_; }
    const ThermalModel &thermal() const { return thermal_; }
    DvfsController &dvfs() { return dvfs_; }
    const PlatformSpec &spec() const { return spec_; }
    const PerfCounters &
    counters() const
    {
        // The cycle/stall images are materialized lazily (DESIGN.md
        // §5d); bring them up to date before handing the block out.
        cpu_.materializeCounters();
        return counters_;
    }

    /**
     * Register a periodic task. The first firing happens one period from
     * the current time (plus optional phase offset).
     */
    TaskId addPeriodicTask(const std::string &name, Tick period,
                           TaskFn fn, Tick phase = 0);

    /**
     * Unregister a task; the others keep their firing order. An owner
     * whose task captures it must remove the task before it dies, or
     * the System keeps calling into the dead object.
     */
    void removePeriodicTask(TaskId id);

    /** Fire every task whose deadline has passed. Cheap when none is due. */
    void
    poll()
    {
        if (cpu_.now() >= nextDue_)
            runDueTasks();
    }

    /** Tick at which the earliest periodic task is next due (max Tick
     *  if none). Lets burst loops bound how long no poll can fire. */
    Tick nextTaskDue() const { return nextDue_; }

    /** Bring both power models up to the current instant. */
    void syncPower();

    /** CPU energy consumed so far (after an implicit syncPower). */
    double cpuJoules();

    /** Memory energy consumed so far (after an implicit syncPower). */
    double memoryJoules();

    /** Switch DVFS operating point, keeping energy integration exact. */
    void applyOperatingPoint(const OperatingPoint &point);

    /**
     * Let simulated time advance while the CPU idles, still firing
     * periodic tasks (used for idle/thermal experiments).
     */
    void idleFor(Tick duration);

  private:
    friend class DvfsController;

    struct TaskEntry
    {
        TaskId id;
        std::string name;
        Tick period;
        Tick next;
        TaskFn fn;
    };

    void runDueTasks();
    void recomputeNextDue();
    void thermalStep(Tick now);

    PlatformSpec spec_;
    PerfCounters counters_;
    MemoryHierarchy memory_;
    CpuModel cpu_;
    PowerModel power_;
    MemoryPowerModel memPower_;
    ThermalModel thermal_;
    DvfsController dvfs_;

    std::vector<TaskEntry> tasks_;
    TaskId lastTaskId_ = 0;
    Tick nextDue_ = std::numeric_limits<Tick>::max();

    // Thermal integration window state.
    double thermalRefJoules_ = 0.0;
    Tick thermalRefTick_ = 0;
};

} // namespace sim
} // namespace javelin

#endif // JAVELIN_SIM_SYSTEM_HH
