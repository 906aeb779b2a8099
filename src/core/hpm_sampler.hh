/**
 * @file
 * OS-timer-driven hardware-performance-monitor sampler (Section IV-E).
 *
 * The operating system's main timer takes a periodic sample (1 ms on the
 * P6 platform, 10 ms on the DBPXA255) of whatever is running: the HPM
 * counter deltas over the period are attributed to the JVM component
 * registered at the sampling instant. This is the source of the
 * per-component IPC and cache-miss-rate numbers in paper Section VI-C.
 */

#ifndef JAVELIN_CORE_HPM_SAMPLER_HH
#define JAVELIN_CORE_HPM_SAMPLER_HH

#include "core/component_port.hh"
#include "core/trace_spool.hh"
#include "core/traces.hh"
#include "sim/system.hh"

namespace javelin {
namespace core {

/**
 * Periodic performance-counter sampler.
 */
class HpmSampler
{
  public:
    struct Config
    {
        /** Spool sink (non-owning); see Daq::Config::spool. */
        TraceSpool *spool = nullptr;
        /**
         * CPU cycles charged per sample for the timer ISR that reads
         * the counters (the measurement infrastructure's own
         * perturbation; 0 models a free sampler and is the default so
         * golden runs are unaffected). See bench/abl_sampling_error.
         */
        double isrCostCycles = 0.0;
    };

    HpmSampler(sim::System &system, ComponentPort &port);
    HpmSampler(sim::System &system, ComponentPort &port,
               const Config &config);

    /** Sampling period: the platform's PlatformSpec::hpmPeriod. */
    Tick period() const { return period_; }
    /** Every sample taken, in order. */
    const PerfTrace &trace() const { return trace_; }

    /**
     * Detach: flush the counter delta accumulated since the last
     * periodic sample as one final sample, so per-component counter
     * attribution totals conserve the run's full counter deltas (the
     * perf-side analogue of Daq::stop()). The flush is a harness read,
     * not a timer interrupt, so no ISR cost is charged. Idempotent.
     */
    void stop();

  private:
    void sample(Tick now);

    sim::System &system_;
    ComponentPort &port_;
    Tick period_;
    double isrCostCycles_ = 0.0;
    PerfTrace trace_;
    TraceSpool *spool_ = nullptr;
    bool stopped_ = false;
    sim::PerfCounters last_;
};

} // namespace core
} // namespace javelin

#endif // JAVELIN_CORE_HPM_SAMPLER_HH
