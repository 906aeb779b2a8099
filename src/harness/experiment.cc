#include "harness/experiment.hh"

#include <algorithm>
#include <filesystem>
#include <functional>
#include <limits>

#include "core/energy_accounting.hh"
#include "core/trace_spool.hh"
#include "util/logging.hh"

namespace javelin {
namespace harness {

std::string
ExperimentResult::error() const
{
    if (failed)
        return failMessage.empty() ? "harness failure" : failMessage;
    if (run.outOfMemory)
        return kOutOfMemoryError;
    if (run.stackOverflow)
        return kStackOverflowError;
    return "";
}

double
ExperimentResult::edp() const
{
    return core::energyDelayProduct(attribution.totalJoules(),
                                    run.seconds());
}

std::uint64_t
scaledHeapBytes(const ExperimentConfig &config)
{
    const auto raw = static_cast<std::uint64_t>(
        config.heapNominalMB * static_cast<double>(kMiB) *
        config.heapScale);
    // Block-align for the free-list spaces; enforce a sane floor.
    const std::uint64_t block = 16 * 1024;
    return std::max<std::uint64_t>(8 * block, raw / block * block);
}

sim::PlatformSpec
scaledPlatformSpec(const ExperimentConfig &config)
{
    sim::PlatformSpec spec = sim::platformSpec(config.platform);
    if (config.scaleCaches) {
        // Preserve heap:cache geometry (DESIGN.md §2): L1 halves, L2
        // quarters. Associativity and line size stay as measured.
        spec.memory.l1i.sizeBytes /= 2;
        spec.memory.l1d.sizeBytes /= 2;
        if (spec.memory.l2)
            spec.memory.l2->sizeBytes /= 4;
    }
    if (config.daqPeriod)
        spec.daqPeriod = config.daqPeriod;
    if (config.hpmPeriod)
        spec.hpmPeriod = config.hpmPeriod;
    return spec;
}

namespace {

/** The VM an experiment boots (each co-tenant starts from it too). */
jvm::JvmConfig
jvmConfigFor(const ExperimentConfig &config)
{
    jvm::JvmConfig vm;
    vm.kind = config.vm;
    vm.collector = config.collector;
    vm.heapBytes = scaledHeapBytes(config);
    vm.interp = jvm::interpConfigFor(config.vm);
    vm.chargePortWrites = config.chargePortWrites;
    vm.adaptiveOptimization = config.adaptiveOptimization;
    vm.chargeBarrierCost = config.chargeBarrierCost;
    return vm;
}

/** The benchmark's program at the config's dataset and study scale. */
jvm::Program
buildProgramFor(const ExperimentConfig &config,
                const workloads::BenchmarkProfile &profile)
{
    workloads::StudyScale scale = workloads::studyScaleFor(config.dataset);
    scale.volume = config.heapScale;
    return workloads::buildProgram(profile, scale);
}

/**
 * The measurement rig of paper Section IV (DESIGN.md §4): the platform
 * at the config's DVFS point and its component-ID port. Build every VM
 * on `port` first, then measure().
 */
struct Rig
{
    explicit Rig(const ExperimentConfig &cfg)
        : config(cfg), system(scaledPlatformSpec(cfg)),
          port(system, core::ComponentPort::Config{cfg.chargePortWrites})
    {
        if (config.dvfsPoint >= 0)
            system.dvfs().set(static_cast<std::size_t>(config.dvfsPoint));
    }

    /**
     * Attach the instruments, run `step` (it fills the run's own
     * fields), stop the instruments in order, write their traces when
     * traceSpoolDir is set, and fill every measured field. Attached
     * after the VMs, the instruments' tasks follow the VMs' adaptive
     * samplers and their observers follow a TenantSet's.
     */
    ExperimentResult
    measure(const std::string &benchmark,
            const std::function<void(ExperimentResult &)> &step)
    {
        ExperimentResult res;
        res.config = config;
        res.benchmark = benchmark;

        core::Daq::Config daqCfg;
        daqCfg.cpuSense.noiseVoltsRms = config.senseNoiseVoltsRms;
        daqCfg.cpuSense.seed = config.seed * 31 + 1;
        daqCfg.memSense.noiseVoltsRms = config.senseNoiseVoltsRms;
        daqCfg.memSense.seed = config.seed * 31 + 2;
        core::HpmSampler::Config hpmCfg;
        hpmCfg.isrCostCycles = config.hpmIsrCostCycles;
        core::Daq daq(system, port, daqCfg);
        core::HpmSampler hpm(system, port, hpmCfg);
        core::GroundTruthAccountant truth(system, port);

        step(res);
        truth.finalize();
        // Flush the in-progress partial sampling windows so measured
        // totals conserve the run's full energy/counter deltas.
        daq.stop();
        hpm.stop();
        // Trace capture is host I/O on the finished traces, so it
        // cannot move a measured number.
        if (!config.traceSpoolDir.empty()) {
            std::filesystem::create_directories(config.traceSpoolDir);
            const std::string stem = config.traceSpoolDir + "/" + benchmark;
            core::writeTrace(stem + ".power.jtrc", daq.trace());
            core::writeTrace(stem + ".perf.jtrc", hpm.trace());
        }
        res.counters = system.counters();

        res.attribution = core::attribute(daq.trace(), hpm.trace());
        for (std::size_t i = 0; i < core::kNumComponents; ++i)
            res.groundTruth[i] =
                truth.slice(static_cast<core::ComponentId>(i));
        res.groundTruthCpuJoules = truth.totalCpuJoules();
        res.groundTruthMemJoules = truth.totalMemJoules();
        res.maxTemperatureC = system.thermal().maxTemperatureC();
        res.throttledSeconds = system.thermal().throttledSeconds();
        return res;
    }

    const ExperimentConfig &config;
    sim::System system;
    core::ComponentPort port;
};

/**
 * Request-sized builds: one co-tenancy request is the benchmark's
 * program with its allocation volume shrunk by this divisor, so a
 * request is milliseconds, not the full batch run (DESIGN.md §11).
 */
constexpr double kRequestVolumeDivisor = 64.0;

/** Thermal time dilation: equivalent paper seconds per simulated one. */
constexpr double kThermalScale = 4000.0;

/** Collector for tenant i under the rotation policy. */
jvm::CollectorKind
tenantCollector(const ExperimentConfig &config, std::uint32_t i)
{
    if (!config.tenantCollectorRotate)
        return config.collector;
    constexpr std::uint32_t kKinds = 5; // CollectorKind enumerators
    const auto base = static_cast<std::uint32_t>(config.collector);
    return static_cast<jvm::CollectorKind>((base + i) % kKinds);
}

ExperimentResult
runCoTenancy(const ExperimentConfig &config,
             const workloads::BenchmarkProfile &profile)
{
    Rig rig(config);

    // Per-tenant programs: the same benchmark, request-sized, with an
    // independent seed per tenant so tenants are statistically alike
    // but not in lockstep.
    workloads::StudyScale scale = workloads::studyScaleFor(config.dataset);
    scale.volume = config.heapScale / kRequestVolumeDivisor;
    std::vector<jvm::Program> programs;
    programs.reserve(config.tenants);
    for (std::uint32_t i = 0; i < config.tenants; ++i) {
        workloads::BenchmarkProfile p = profile;
        p.seed = profile.seed + 0x9e3779b97f4a7c15ULL * (i + 1);
        programs.push_back(workloads::buildProgram(p, scale));
    }

    TenantSet set(rig.system, rig.port);
    for (std::uint32_t i = 0; i < config.tenants; ++i) {
        TenantSpec spec;
        spec.vm = jvmConfigFor(config);
        spec.vm.collector = tenantCollector(config, i);
        spec.program = &programs[i];
        spec.arrival.kind = config.arrival;
        spec.arrival.ratePerSec = config.requestRateHz;
        spec.requests = config.requestsPerTenant;
        spec.seed = config.seed * 131 + 2 * i + 1;
        set.add(spec);
    }

    ExperimentResult res = rig.measure(
        profile.name,
        [&](ExperimentResult &r) { r.cotenancy = set.run(); });

    // Cross-tenant aggregate rollup, so every downstream consumer of
    // ExperimentResult::run keeps working on co-tenancy shards.
    res.run.startTick = res.cotenancy.startTick;
    res.run.endTick = res.cotenancy.endTick;
    for (const auto &a : res.cotenancy.tenants) {
        res.run.bytecodesExecuted += a.vm.bytecodesExecuted;
        res.run.classesLoaded += a.vm.classesLoaded;
        res.run.methodsCompiled += a.vm.methodsCompiled;
        res.run.methodsOptimized += a.vm.methodsOptimized;
        res.run.gc.collections += a.vm.gc.collections;
        res.run.gc.minorCollections += a.vm.gc.minorCollections;
        res.run.gc.majorCollections += a.vm.gc.majorCollections;
        res.run.gc.pauseTicks += a.vm.gc.pauseTicks;
        res.run.gc.bytesAllocated += a.vm.gc.bytesAllocated;
        res.run.gc.objectsAllocated += a.vm.gc.objectsAllocated;
        res.run.gc.bytesCopied += a.vm.gc.bytesCopied;
        res.run.gc.objectsCopied += a.vm.gc.objectsCopied;
        res.run.gc.objectsMarked += a.vm.gc.objectsMarked;
        res.run.gc.bytesFreed += a.vm.gc.bytesFreed;
        res.run.gc.barrierHits += a.vm.gc.barrierHits;
        res.run.gc.remsetEntries += a.vm.gc.remsetEntries;
        if (a.failed && !res.failed) {
            res.failed = true;
            res.failMessage = "tenant failed: " + a.failMessage;
        }
    }
    return res;
}

} // namespace

ExperimentResult
runExperiment(const ExperimentConfig &config, const jvm::Program &program)
{
    Rig rig(config);
    jvm::Jvm vm(rig.system, program, jvmConfigFor(config), rig.port);
    return rig.measure(program.name,
                       [&](ExperimentResult &res) { res.run = vm.run(); });
}

ExperimentResult
runExperiment(const ExperimentConfig &config,
              const workloads::BenchmarkProfile &profile)
{
    if (config.tenants > 0)
        return runCoTenancy(config, profile);
    return runExperiment(config, buildProgramFor(config, profile));
}

ThermalStudyResult
runThermalStudy(const ThermalStudyConfig &study)
{
    // Also rejects inf and NaN, and horizons past the Tick range.
    JAVELIN_ASSERT(study.horizonSeconds > 0 &&
                       study.horizonSeconds / kThermalScale <
                           ticksToSeconds(
                               std::numeric_limits<Tick>::max()),
                   "thermal study horizon must be positive and finite: ",
                   study.horizonSeconds);
    ExperimentConfig config;
    config.dataset = workloads::DatasetScale::Small;
    sim::PlatformSpec spec = scaledPlatformSpec(config);
    spec.thermal.capacitanceJperC /= kThermalScale;
    const jvm::Program program =
        buildProgramFor(config, workloads::benchmark(study.benchmark));
    const jvm::JvmConfig vmConfig = jvmConfigFor(config);

    sim::System system(spec);
    system.thermal().setFanEnabled(study.fanEnabled);

    const Tick horizon =
        secondsToTicks(study.horizonSeconds / kThermalScale);
    ThermalStudyResult res;
    system.addPeriodicTask(500 * kTicksPerMicro, [&](Tick now) {
        if (now <= horizon)
            res.timeline.push_back({ticksToSeconds(now) * kThermalScale,
                                    system.thermal().temperatureC(),
                                    system.cpu().dutyCycle(),
                                    system.thermal().throttled()});
    });
    // One long-lived policy task; `current` is the VM in flight (null
    // between runs). It collects only while the application runs, so
    // it never re-enters the collector.
    jvm::Jvm *current = nullptr;
    if (study.guardC > 0) {
        system.addPeriodicTask(200 * kTicksPerMicro, [&](Tick) {
            if (current &&
                system.thermal().temperatureC() >= study.guardC &&
                current->port().current() == core::ComponentId::App)
                current->collector().collect(false);
        });
    }
    // Every total covers exactly [0, H], so studies that differ only in
    // policy compare equal spans: the VM running at H finishes, but the
    // totals are read at H, its collections and bytecodes so far
    // included. A run that ran out of memory ends the study early.
    bool measured = false;
    const auto measure = [&] {
        if (measured)
            return;
        measured = true;
        const Tick end = std::min(system.cpu().now(), horizon);
        res.seconds = ticksToSeconds(end) * kThermalScale;
        res.throttledSeconds =
            system.thermal().throttledSeconds() * kThermalScale;
        res.cpuJoules = system.cpuJoules() * kThermalScale;
        res.peakC = system.thermal().maxTemperatureC();
        if (current) {
            res.collections += current->collector().stats().collections;
            res.bytecodes += current->engine().bytecodesExecuted();
        }
    };
    system.addPeriodicTask(horizon, [&](Tick) { measure(); });

    while (system.cpu().now() < horizon) {
        jvm::Jvm vm(system, program, vmConfig);
        current = &vm;
        const jvm::RunResult run = vm.run();
        current = nullptr;
        if (measured)
            break; // counted up to H
        ++res.runs;
        res.collections += run.gc.collections;
        res.bytecodes += run.bytecodesExecuted;
        if (run.outOfMemory)
            break;
    }
    // A run that ended at or past H without polling there.
    system.poll();
    measure();
    return res;
}

} // namespace harness
} // namespace javelin
