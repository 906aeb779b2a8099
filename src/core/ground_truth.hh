/**
 * @file
 * Exact per-component energy/performance accountant.
 *
 * A real measurement rig only sees the sampled traces; the simulator can
 * additionally integrate energy exactly at every component switch (the
 * power model is linear in counters and time, so switch-boundary
 * integration is exact). This accountant observes the ComponentPort and
 * provides the reference against which the sampled attribution is
 * validated (tests and bench/abl_sampling_error — the quantization-error
 * study the paper could not run on hardware).
 */

#ifndef JAVELIN_CORE_GROUND_TRUTH_HH
#define JAVELIN_CORE_GROUND_TRUTH_HH

#include <array>

#include "core/component_port.hh"
#include "sim/system.hh"

namespace javelin {
namespace core {

/**
 * Exact per-component accounting, updated at component switches.
 */
class GroundTruthAccountant
{
  public:
    struct Slice
    {
        double cpuJoules = 0.0;
        double memJoules = 0.0;
        Tick time = 0;
        sim::PerfCounters counters;
    };

    GroundTruthAccountant(sim::System &system, ComponentPort &port);
    /** Removes the switch observer from the port. */
    ~GroundTruthAccountant() { port_.removeObserver(observer_); }

    GroundTruthAccountant(const GroundTruthAccountant &) = delete;
    GroundTruthAccountant &
    operator=(const GroundTruthAccountant &) = delete;

    /** Close the currently-open slice (call once at end of run). */
    void finalize();

    const Slice &slice(ComponentId id) const;

    double totalCpuJoules() const;
    double totalMemJoules() const;
    Tick totalTime() const;

  private:
    void onSwitch(ComponentId prev);
    void accumulate(ComponentId id);

    sim::System &system_;
    ComponentPort &port_;
    ComponentPort::ObserverId observer_ = 0;
    std::array<Slice, kNumComponents> slices_;

    double refCpuJ_ = 0.0;
    double refMemJ_ = 0.0;
    Tick refTick_ = 0;
    sim::PerfCounters refCounters_;
    bool finalized_ = false;
};

} // namespace core
} // namespace javelin

#endif // JAVELIN_CORE_GROUND_TRUTH_HH
