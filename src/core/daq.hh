/**
 * @file
 * High-speed data acquisition system (paper Section IV-D).
 *
 * Samples the CPU and memory power channels (through sense-resistor
 * models) and the component-ID register every 40 us of simulated time.
 * As in the paper, this places a 40 us measurement window on all power
 * measurements: transient changes inside the window are not captured,
 * nor is the exact instant of a component switch. The sampled power for
 * a window is the window-average of the (exactly integrated) power
 * model, which is what a real integrating DAQ front-end reports.
 *
 * Like the paper's DAQ, it only captures: the whole trace stays in
 * memory for offline attribution, and a run that keeps its traces
 * writes them to disk after stop() (core::writeTrace, DESIGN.md §10).
 */

#ifndef JAVELIN_CORE_DAQ_HH
#define JAVELIN_CORE_DAQ_HH

#include "core/component_port.hh"
#include "core/sense_resistor.hh"
#include "core/traces.hh"
#include "sim/system.hh"

namespace javelin {
namespace core {

/**
 * The sampling DAQ: one instance per experiment run.
 */
class Daq
{
  public:
    struct Config
    {
        /** CPU rail sense channel. */
        SenseResistor::Config cpuSense;
        /** Memory rail sense channel. */
        SenseResistor::Config memSense;
    };

    Daq(sim::System &system, ComponentPort &port);
    Daq(sim::System &system, ComponentPort &port, const Config &config);
    /** Removes the sampling task from the System. */
    ~Daq() { system_.removePeriodicTask(task_); }

    Daq(const Daq &) = delete;
    Daq &operator=(const Daq &) = delete;

    /** Sampling period: the platform's PlatformSpec::daqPeriod. */
    Tick period() const { return period_; }

    /** Every sample taken, in order. */
    const PowerTrace &trace() const { return trace_; }

    /** Total measured CPU energy: sum of sample power * actual window
     *  (integrateCpuJoules over the trace). */
    double measuredCpuJoules() const;

    /** Total measured memory energy (integrateMemJoules). */
    double measuredMemJoules() const;

    /**
     * Detach: flush the in-progress partial window as one final sample
     * covering [last sample, now), so the measured totals equal the
     * exactly-integrated energy of the whole attachment interval. On
     * ms-scale runs the truncated final window used to be a visible
     * fraction of the total. Idempotent; periodic firings after stop()
     * are ignored. The harness calls this once before attribution.
     */
    void stop();

    bool stopped() const { return stopped_; }

  private:
    void sample(Tick now);

    sim::System &system_;
    ComponentPort &port_;
    Tick period_;
    sim::System::TaskId task_ = 0;
    SenseResistor cpuSense_;
    SenseResistor memSense_;
    PowerTrace trace_;
    bool stopped_ = false;

    double refCpuJoules_ = 0.0;
    double refMemJoules_ = 0.0;
    Tick refTick_ = 0;
    double lastCpuWatts_ = 0.0;
    double lastMemWatts_ = 0.0;
};

} // namespace core
} // namespace javelin

#endif // JAVELIN_CORE_DAQ_HH
