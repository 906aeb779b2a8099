#include "harness/experiment.hh"

#include <algorithm>
#include <filesystem>
#include <memory>

#include "core/energy_accounting.hh"
#include "util/logging.hh"

namespace javelin {
namespace harness {

std::string
ExperimentResult::error() const
{
    if (failed)
        return failMessage.empty() ? "harness failure" : failMessage;
    if (run.outOfMemory)
        return "out of memory";
    if (run.stackOverflow)
        return "stack overflow";
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

ExperimentResult
runExperiment(const ExperimentConfig &config, const jvm::Program &program)
{
    ExperimentResult res;
    res.config = config;
    res.benchmark = program.name;

    sim::System system(scaledPlatformSpec(config));

    jvm::JvmConfig vmCfg;
    vmCfg.kind = config.vm;
    vmCfg.collector = config.collector;
    vmCfg.heapBytes = scaledHeapBytes(config);
    vmCfg.interp = jvm::interpConfigFor(config.vm);
    vmCfg.chargePortWrites = config.chargePortWrites;
    vmCfg.adaptiveOptimization = config.adaptiveOptimization;
    vmCfg.chargeBarrierCost = config.chargeBarrierCost;

    if (config.dvfsPoint >= 0)
        system.dvfs().set(static_cast<std::size_t>(config.dvfsPoint));

    jvm::Jvm vm(system, program, vmCfg);

    core::Daq::Config daqCfg;
    daqCfg.cpuSense.noiseVoltsRms = config.senseNoiseVoltsRms;
    daqCfg.cpuSense.seed = config.seed * 31 + 1;
    daqCfg.memSense.noiseVoltsRms = config.senseNoiseVoltsRms;
    daqCfg.memSense.seed = config.seed * 31 + 2;
    // Optional trace capture (tee: the in-memory traces still feed
    // attribution, the spools persist them without touching the
    // measured path's results).
    std::unique_ptr<core::TraceSpool> powerSpool, perfSpool;
    if (!config.traceSpoolDir.empty()) {
        std::filesystem::create_directories(config.traceSpoolDir);
        core::TraceSpool::Config sp;
        sp.path = config.traceSpoolDir + "/" + program.name +
                  ".power.jtrc";
        sp.kind = core::tracefmt::RecordKind::Power;
        powerSpool = std::make_unique<core::TraceSpool>(sp);
        sp.path = config.traceSpoolDir + "/" + program.name +
                  ".perf.jtrc";
        sp.kind = core::tracefmt::RecordKind::Perf;
        perfSpool = std::make_unique<core::TraceSpool>(sp);
        daqCfg.spool = powerSpool.get();
    }
    core::Daq daq(system, vm.port(), daqCfg);
    core::HpmSampler::Config hpmCfg;
    hpmCfg.isrCostCycles = config.hpmIsrCostCycles;
    hpmCfg.spool = perfSpool.get();
    core::HpmSampler hpm(system, vm.port(), hpmCfg);
    core::GroundTruthAccountant truth(system, vm.port());

    res.run = vm.run();
    truth.finalize();
    // Flush the in-progress partial sampling windows so measured
    // totals conserve the run's full energy/counter deltas.
    daq.stop();
    hpm.stop();
    if (powerSpool)
        powerSpool->close();
    if (perfSpool)
        perfSpool->close();
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

namespace {

/**
 * Request-sized builds: one co-tenancy request is the benchmark's
 * program with its allocation volume shrunk by this divisor, so a
 * request is milliseconds, not the full batch run (DESIGN.md §11).
 */
constexpr double kRequestVolumeDivisor = 64.0;

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
    ExperimentResult res;
    res.config = config;
    res.benchmark = profile.name;

    sim::System system(scaledPlatformSpec(config));
    if (config.dvfsPoint >= 0)
        system.dvfs().set(static_cast<std::size_t>(config.dvfsPoint));

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

    core::ComponentPort port(
        system, core::ComponentPort::Config{config.chargePortWrites});

    TenantSet set(system, port);
    for (std::uint32_t i = 0; i < config.tenants; ++i) {
        TenantSpec spec;
        spec.vm.kind = config.vm;
        spec.vm.collector = tenantCollector(config, i);
        spec.vm.heapBytes = scaledHeapBytes(config);
        spec.vm.interp = jvm::interpConfigFor(config.vm);
        spec.vm.chargePortWrites = config.chargePortWrites;
        spec.vm.adaptiveOptimization = config.adaptiveOptimization;
        spec.vm.chargeBarrierCost = config.chargeBarrierCost;
        spec.program = &programs[i];
        spec.arrival.kind = config.arrival;
        spec.arrival.ratePerSec = config.requestRateHz;
        spec.requests = config.requestsPerTenant;
        spec.seed = config.seed * 131 + 2 * i + 1;
        set.add(spec);
    }

    core::Daq::Config daqCfg;
    daqCfg.cpuSense.noiseVoltsRms = config.senseNoiseVoltsRms;
    daqCfg.cpuSense.seed = config.seed * 31 + 1;
    daqCfg.memSense.noiseVoltsRms = config.senseNoiseVoltsRms;
    daqCfg.memSense.seed = config.seed * 31 + 2;
    core::Daq daq(system, port, daqCfg);
    core::HpmSampler::Config hpmCfg;
    hpmCfg.isrCostCycles = config.hpmIsrCostCycles;
    core::HpmSampler hpm(system, port, hpmCfg);
    core::GroundTruthAccountant truth(system, port);

    res.cotenancy = set.run();
    truth.finalize();
    daq.stop();
    hpm.stop();
    res.counters = system.counters();

    res.attribution = core::attribute(daq.trace(), hpm.trace());
    for (std::size_t i = 0; i < core::kNumComponents; ++i)
        res.groundTruth[i] =
            truth.slice(static_cast<core::ComponentId>(i));
    res.groundTruthCpuJoules = truth.totalCpuJoules();
    res.groundTruthMemJoules = truth.totalMemJoules();
    res.maxTemperatureC = system.thermal().maxTemperatureC();
    res.throttledSeconds = system.thermal().throttledSeconds();

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
runExperiment(const ExperimentConfig &config,
              const workloads::BenchmarkProfile &profile)
{
    if (config.tenants > 0)
        return runCoTenancy(config, profile);
    workloads::StudyScale scale = workloads::studyScaleFor(config.dataset);
    scale.volume = config.heapScale;
    const jvm::Program program = workloads::buildProgram(profile, scale);
    ExperimentResult res = runExperiment(config, program);
    res.benchmark = profile.name;
    return res;
}

} // namespace harness
} // namespace javelin
