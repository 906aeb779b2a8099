/**
 * @file
 * The experiment harness: the public API most users interact with.
 *
 * One Experiment run reproduces the paper's measurement flow end to
 * end: assemble a platform (P6 or DBPXA255), boot a JVM personality
 * (Jikes or Kaffe) with a chosen collector and heap size, attach the
 * DAQ, the HPM sampler and the ground-truth accountant to the
 * component-ID port, execute a benchmark, and post-process the traces
 * into a per-component Attribution.
 *
 * Heap sizes are specified with the paper's nominal labels (32..128 MB
 * on the P6, 12..32 MB on the PXA255); the study scale divides both
 * heaps and allocation volumes by 16, and the platform's caches are
 * scaled (L1 by 2, L2 by 4) so the heap:cache geometry of the paper is
 * preserved (see DESIGN.md §2).
 */

#ifndef JAVELIN_HARNESS_EXPERIMENT_HH
#define JAVELIN_HARNESS_EXPERIMENT_HH

#include <array>

#include "core/attribution.hh"
#include "core/daq.hh"
#include "core/ground_truth.hh"
#include "core/hpm_sampler.hh"
#include "harness/tenant_set.hh"
#include "jvm/jvm.hh"
#include "workloads/program_builder.hh"
#include "workloads/service.hh"
#include "workloads/suite.hh"

namespace javelin {
namespace harness {

/** The paper's P6 heap sweep (Section IV-A). */
constexpr std::array<std::uint32_t, 7> kP6HeapsMB = {32,  48, 64, 80,
                                                     96, 112, 128};

/** The PXA255 heap sweep (Section VI-E). */
constexpr std::array<std::uint32_t, 6> kPxaHeapsMB = {12, 16, 20, 24,
                                                      28, 32};

/**
 * Configuration for one experimental run.
 */
struct ExperimentConfig
{
    sim::PlatformKind platform = sim::PlatformKind::P6;
    jvm::VmKind vm = jvm::VmKind::Jikes;
    jvm::CollectorKind collector = jvm::CollectorKind::GenCopy;
    /** Heap size using the paper's nominal label (MB). */
    std::uint32_t heapNominalMB = 32;
    workloads::DatasetScale dataset = workloads::DatasetScale::Full;

    /** Study scale: nominal sizes are multiplied by this. */
    double heapScale = 1.0 / 16.0;
    /** Preserve heap:cache geometry by scaling the caches too. */
    bool scaleCaches = true;

    /** DAQ sampling period override (0 = the platform's 40 us). */
    Tick daqPeriod = 0;
    /** HPM sampling period override (0 = platform OS timer). */
    Tick hpmPeriod = 0;
    /**
     * CPU cycles charged per HPM sample (timer-ISR cost; 0 keeps the
     * sampler free as in all golden runs). Lets the sampler-overhead
     * ablation measure the infrastructure's own energy perturbation.
     */
    double hpmIsrCostCycles = 0.0;
    /** Gaussian noise on the DAQ sense channels (volts RMS). */
    double senseNoiseVoltsRms = 0.0;
    /** Charge the component-port writes to the CPU. */
    bool chargePortWrites = true;
    /** Disable the adaptive optimizing system (ablation). */
    bool adaptiveOptimization = true;
    /** Charge write-barrier work to the mutator (ablation A2). */
    bool chargeBarrierCost = true;
    /** DVFS operating-point index (-1 = platform maximum). */
    int dvfsPoint = -1;

    /**
     * Co-tenancy (DESIGN.md §11): number of tenant VMs interleaved on
     * the platform. 0 (the default) is the classic single-VM batch
     * run; >= 1 switches to service mode, where each tenant serves
     * requestsPerTenant invocations of a request-sized build of the
     * benchmark under the configured arrival process.
     */
    std::uint32_t tenants = 0;
    /** Arrival-process shape for every tenant. */
    workloads::ArrivalKind arrival = workloads::ArrivalKind::Poisson;
    /** Mean offered load per tenant (requests per simulated second). */
    double requestRateHz = 2000.0;
    /** Requests each tenant serves. */
    std::uint32_t requestsPerTenant = 32;
    /** Rotate tenant collectors through the collector enum starting at
     *  `collector` (tenant i gets collector + i mod #kinds), so one
     *  run exhibits cross-collector interference. */
    bool tenantCollectorRotate = false;

    std::uint64_t seed = 7;

    /**
     * Host-side trace capture: when non-empty, the run's power and
     * perf traces are written, once the instruments stop, to
     * <dir>/<benchmark>.power.jtrc and <dir>/<benchmark>.perf.jtrc
     * (javelin-trace-v1; inspect with the javelin-trace CLI). Pure
     * host I/O — the simulation, its seeds, and every measured number
     * are unchanged, which is why this knob is deliberately NOT part
     * of the scenario serialization or its hash. A run whose step
     * throws writes neither file.
     */
    std::string traceSpoolDir;
};

/**
 * ExperimentResult::error() of a run that ran out of heap or stack: a
 * simulated outcome, a result of the experiment, not a failure of it.
 */
inline constexpr const char *kOutOfMemoryError = "out of memory";
inline constexpr const char *kStackOverflowError = "stack overflow";

/**
 * Everything measured in one run.
 */
struct ExperimentResult
{
    ExperimentConfig config;
    std::string benchmark;
    jvm::RunResult run;
    core::Attribution attribution;

    /** Final free-running HPM counter block (golden-run regression). */
    sim::PerfCounters counters;

    /** Exact per-component accounting (simulator-only reference). */
    std::array<core::GroundTruthAccountant::Slice, core::kNumComponents>
        groundTruth;
    double groundTruthCpuJoules = 0.0;
    double groundTruthMemJoules = 0.0;

    /** Thermal outcome. */
    double maxTemperatureC = 0.0;
    double throttledSeconds = 0.0;

    /** Per-tenant accounts and interference data (tenants > 0 only;
     *  `run` then carries the cross-tenant aggregate). */
    CoTenancyResult cotenancy;

    /**
     * The run itself failed: an exception escaped it (stamped by
     * SweepRunner::runTask) or a co-tenant died. Lets a failed shard
     * never masquerade as a successful zero-energy run in downstream
     * tables.
     */
    bool failed = false;
    std::string failMessage;

    bool ok() const
    {
        return !failed && !run.outOfMemory && !run.stackOverflow;
    }

    /**
     * Why the run is not ok(), "" when it is: failMessage ("harness
     * failure" if that is empty), else kOutOfMemoryError or
     * kStackOverflowError. The one failure text every sweep front end
     * journals and reports.
     */
    std::string error() const;

    /** Energy-delay product over measured totals (J*s). */
    double edp() const;
};

/** Heap bytes for a nominal label under a config's study scale. */
std::uint64_t scaledHeapBytes(const ExperimentConfig &config);

/** Platform spec with the config's memory-system scaling applied. */
sim::PlatformSpec scaledPlatformSpec(const ExperimentConfig &config);

/**
 * Run one benchmark under one configuration.
 */
ExperimentResult runExperiment(const ExperimentConfig &config,
                               const workloads::BenchmarkProfile &profile);

/** Run a pre-built program (tests, custom studies). */
ExperimentResult runExperiment(const ExperimentConfig &config,
                               const jvm::Program &program);

/**
 * One thermal study (paper Fig. 1, Section VI-C, DESIGN.md §4): Jikes
 * RVM + GenCopy (32 MB label, Small dataset) runs the benchmark VM
 * after VM on one warm study-scale P6 until the horizon. The package's
 * thermal capacitance is divided by 4000, shortening the RC time
 * constant as much as the study scale shortens the runs, so one
 * simulated second stands for 4000 seconds of the paper's board
 * ("equivalent paper seconds"). No instrument is attached; a 500 us
 * timeline records the die.
 */
struct ThermalStudyConfig
{
    std::string benchmark = "_222_mpegaudio";
    bool fanEnabled = false;
    /** Study length in equivalent paper seconds (positive, finite). */
    double horizonSeconds = 180.0;
    /**
     * Thermal-aware GC (Section VI-C): every 200 us, force a collection
     * while the application runs and the die is at or above this
     * temperature. 0 = no policy.
     */
    double guardC = 0.0;
};

/** One timeline sample, every 500 us of simulated time. */
struct ThermalSample
{
    /** Equivalent paper seconds. */
    double seconds = 0.0;
    double tempC = 0.0;
    double duty = 1.0;
    bool throttled = false;
};

/**
 * A thermal study's timeline and totals, in equivalent paper units.
 * Everything covers exactly [0, horizon]: the VM running at the
 * horizon finishes, but is counted only up to it.
 */
struct ThermalStudyResult
{
    std::vector<ThermalSample> timeline;
    /** VMs run to completion. */
    std::uint32_t runs = 0;
    double seconds = 0.0;
    double throttledSeconds = 0.0;
    double cpuJoules = 0.0;
    double peakC = 0.0;
    std::uint64_t collections = 0;
    std::uint64_t bytecodes = 0;
};

ThermalStudyResult runThermalStudy(const ThermalStudyConfig &config);

} // namespace harness
} // namespace javelin

#endif // JAVELIN_HARNESS_EXPERIMENT_HH
