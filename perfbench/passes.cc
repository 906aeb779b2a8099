#include "passes.hh"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "harness/ensemble.hh"
#include "harness/job_engine.hh"
#include "harness/scenario.hh"
#include "metrics.hh"

namespace javelin {
namespace perfbench {

namespace {

using harness::ExperimentConfig;
using harness::ExperimentResult;
using harness::SweepTask;

/** Conservation tolerances of tests/test_attribution_props.cc. */
constexpr double kCpuJoulesTolerance = 0.05;
constexpr double kMemJoulesTolerance = 0.10;

/** Setup is short and noisy; each plain pass times it this often and
 *  keeps the fastest probe. */
constexpr int kSetupProbes = 3;

SweepTask
makeTask(const std::string &bench, const ExperimentConfig &config,
         std::uint64_t seed)
{
    SweepTask task{config, workloads::benchmark(bench)};
    task.config.seed = seed;
    task.profile.seed =
        harness::EnsembleRunner::memberProfileSeed(task.profile.seed,
                                                   seed);
    return task;
}

unsigned
availableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
    return std::max(1u, std::thread::hardware_concurrency());
}

/**
 * The sweep's task list: 2-tenant co-tenancy cells, Jikes/P6
 * paper-matrix cells (all four MMTk collectors, two heaps) and
 * Kaffe/PXA255 cells over fig11's embedded benchmarks. Shards start in
 * list order, longest kind first (about 0.6 s, 0.2 s and 0.05 s on a
 * 2.1 GHz Sapphire Rapids core), so the pool's tail is made of the
 * short Kaffe shards. The whole list is about 3 CPU-seconds: short
 * passes let a run take its best pass from many.
 */
std::vector<SweepTask>
sweepTasks(std::uint64_t seed, bool tiny)
{
    std::vector<SweepTask> tasks;

    ExperimentConfig cotenant;
    cotenant.dataset = workloads::DatasetScale::Small;
    cotenant.tenants = 2;
    cotenant.requestsPerTenant = tiny ? 4 : 12;
    cotenant.requestRateHz = 3000.0;
    for (const auto arrival : {workloads::ArrivalKind::Poisson,
                               workloads::ArrivalKind::Bursty}) {
        cotenant.arrival = arrival;
        tasks.push_back(makeTask("_202_jess", cotenant, seed));
        if (tiny)
            break;
    }

    ExperimentConfig jikes;
    jikes.dataset = tiny ? workloads::DatasetScale::Small
                         : workloads::DatasetScale::Full;
    const std::vector<jvm::CollectorKind> collectors = {
        jvm::CollectorKind::SemiSpace, jvm::CollectorKind::MarkSweep,
        jvm::CollectorKind::GenCopy, jvm::CollectorKind::GenMS};
    for (const auto collector : collectors) {
        for (const std::uint32_t heap : {64u, 128u}) {
            jikes.collector = collector;
            jikes.heapNominalMB = heap;
            tasks.push_back(makeTask("fop", jikes, seed));
            if (tiny)
                break;
        }
        if (tiny)
            break;
    }

    ExperimentConfig kaffe;
    kaffe.platform = sim::PlatformKind::Pxa255;
    kaffe.vm = jvm::VmKind::Kaffe;
    kaffe.collector = jvm::CollectorKind::IncrementalMS;
    kaffe.dataset = workloads::DatasetScale::Small;
    kaffe.heapNominalMB = 16;
    for (const auto &bench : workloads::embeddedBenchmarks()) {
        tasks.push_back(makeTask(bench.name, kaffe, seed));
        if (tiny)
            break;
    }
    return tasks;
}

const char *
shardClass(const ExperimentConfig &config)
{
    if (config.tenants > 0)
        return "cotenancy";
    return config.platform == sim::PlatformKind::Pxa255 ? "kaffe_pxa255"
                                                        : "jikes_p6";
}

struct Usage
{
    double cpuSeconds = 0.0;
    double peakRssMiB = 0.0;
};

Usage
usage()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
    };
    return {secs(ru.ru_utime) + secs(ru.ru_stime),
            static_cast<double>(ru.ru_maxrss) / 1024.0};
}

/** The program runExperiment(config, profile) would build. */
jvm::Program
buildProgram(const SweepTask &task)
{
    workloads::StudyScale scale =
        workloads::studyScaleFor(task.config.dataset);
    scale.volume = task.config.heapScale;
    return workloads::buildProgram(task.profile, scale);
}

/** A booted single-VM rig; members are destroyed instruments-first. */
struct Rig
{
    std::unique_ptr<sim::System> system;
    std::unique_ptr<jvm::Jvm> vm;
    std::unique_ptr<core::Daq> daq;
    std::unique_ptr<core::HpmSampler> hpm;
    std::unique_ptr<core::GroundTruthAccountant> truth;
};

/**
 * harness::runExperiment(config, program) up to the first bytecode,
 * without trace spooling; `instruments` attaches the DAQ, the HPM
 * sampler and the ground-truth accountant.
 */
Rig
boot(const ExperimentConfig &config, const jvm::Program &program,
     bool instruments)
{
    Rig rig;
    rig.system =
        std::make_unique<sim::System>(harness::scaledPlatformSpec(config));

    jvm::JvmConfig vmCfg;
    vmCfg.kind = config.vm;
    vmCfg.collector = config.collector;
    vmCfg.heapBytes = harness::scaledHeapBytes(config);
    vmCfg.interp = jvm::interpConfigFor(config.vm);
    vmCfg.chargePortWrites = config.chargePortWrites;
    vmCfg.adaptiveOptimization = config.adaptiveOptimization;
    vmCfg.chargeBarrierCost = config.chargeBarrierCost;
    if (config.dvfsPoint >= 0)
        rig.system->dvfs().set(static_cast<std::size_t>(config.dvfsPoint));
    rig.vm = std::make_unique<jvm::Jvm>(*rig.system, program, vmCfg);
    if (!instruments)
        return rig;

    core::Daq::Config daqCfg;
    daqCfg.cpuSense.noiseVoltsRms = config.senseNoiseVoltsRms;
    daqCfg.cpuSense.seed = config.seed * 31 + 1;
    daqCfg.memSense.noiseVoltsRms = config.senseNoiseVoltsRms;
    daqCfg.memSense.seed = config.seed * 31 + 2;
    rig.daq = std::make_unique<core::Daq>(*rig.system, rig.vm->port(),
                                          daqCfg);
    core::HpmSampler::Config hpmCfg;
    hpmCfg.isrCostCycles = config.hpmIsrCostCycles;
    rig.hpm = std::make_unique<core::HpmSampler>(*rig.system,
                                                 rig.vm->port(), hpmCfg);
    rig.truth = std::make_unique<core::GroundTruthAccountant>(
        *rig.system, rig.vm->port());
    return rig;
}

std::string
simFingerprint(const jvm::RunResult &run, const sim::PerfCounters &c)
{
    Fingerprint f;
    f.add(run.bytecodesExecuted)
        .add(static_cast<std::uint64_t>(run.returnValue))
        .add(run.endTick - run.startTick);
    for (const std::uint64_t v :
         {c.cycles, c.instructions, c.stallCycles, c.branches,
          c.branchMispredicts, c.l1iAccesses, c.l1iMisses, c.l1dAccesses,
          c.l1dMisses, c.l2Accesses, c.l2Misses, c.l2Probes,
          c.dramAccesses, c.dramWritebacks})
        f.add(v);
    return f.hex();
}

std::string
fullFingerprint(const ExperimentResult &res)
{
    const auto &gc = res.run.gc;
    Fingerprint f;
    f.add(simFingerprint(res.run, res.counters));
    for (const std::uint64_t v :
         {gc.collections, gc.objectsCopied, gc.bytesCopied,
          gc.objectsMarked, gc.bytesFreed, gc.remsetEntries,
          gc.barrierHits,
          static_cast<std::uint64_t>(res.run.classesLoaded),
          static_cast<std::uint64_t>(res.run.methodsCompiled),
          static_cast<std::uint64_t>(res.run.methodsOptimized)})
        f.add(v);
    f.add(res.attribution.totalCpuJoules)
        .add(res.attribution.totalMemJoules)
        .add(res.groundTruthCpuJoules)
        .add(res.groundTruthMemJoules);
    return f.hex();
}

/**
 * Add a run's deterministic work counts to `values` (summing over the
 * shards of a sweep); finishRatios() derives the rates afterwards.
 */
void
addCounts(std::map<std::string, double> &values,
          const ExperimentResult &res)
{
    const auto add = [&values](const char *name, double v) {
        values[name] += v;
    };
    const auto &gc = res.run.gc;
    const auto &c = res.counters;
    add("jvm.bytecodes", static_cast<double>(res.run.bytecodesExecuted));
    add("jvm.gc.collections", static_cast<double>(gc.collections));
    add("jvm.gc.objects_copied", static_cast<double>(gc.objectsCopied));
    add("jvm.gc.bytes_copied", static_cast<double>(gc.bytesCopied));
    add("jvm.gc.objects_marked", static_cast<double>(gc.objectsMarked));
    add("jvm.gc.bytes_freed", static_cast<double>(gc.bytesFreed));
    add("jvm.gc.remset_entries", static_cast<double>(gc.remsetEntries));
    add("jvm.gc.barrier_hits", static_cast<double>(gc.barrierHits));
    add("jvm.classes_loaded", res.run.classesLoaded);
    add("jvm.methods_compiled", res.run.methodsCompiled);
    add("jvm.methods_optimized", res.run.methodsOptimized);
    add("sim.instructions", static_cast<double>(c.instructions));
    add("sim.cycles", static_cast<double>(c.cycles));
    add("sim.l1d_accesses", static_cast<double>(c.l1dAccesses));
    add("sim.l1d_misses", static_cast<double>(c.l1dMisses));
    add("sim.l2_accesses", static_cast<double>(c.l2Accesses));
    add("sim.l2_misses", static_cast<double>(c.l2Misses));
    add("sim.dram_accesses", static_cast<double>(c.dramAccesses));
    add("sim.seconds", res.run.seconds());
    std::uint64_t daqSamples = 0, hpmSamples = 0;
    for (std::size_t i = 0; i < core::kNumComponents; ++i) {
        daqSamples += res.attribution.power[i].samples;
        hpmSamples += res.attribution.perf[i].samples;
    }
    add("core.daq_samples", static_cast<double>(daqSamples));
    add("core.hpm_samples", static_cast<double>(hpmSamples));
    add("harness.tenant_set.context_switches",
        static_cast<double>(res.cotenancy.contextSwitches));
}

void
finishRatios(std::map<std::string, double> &values)
{
    const auto ratio = [](double num, double den) {
        return den > 0 ? num / den : 0.0;
    };
    values["sim.ipc"] =
        ratio(values["sim.instructions"], values["sim.cycles"]);
    values["sim.l1d_miss_rate"] =
        ratio(values["sim.l1d_misses"], values["sim.l1d_accesses"]);
    values["sim.l2_miss_rate"] =
        ratio(values["sim.l2_misses"], values["sim.l2_accesses"]);
    values.erase("sim.l1d_misses");
    values.erase("sim.l2_misses");
}

void
countResult(PassRecord &rec, const ExperimentResult &res)
{
    ++rec.attempted;
    const std::string err = checkResult(res);
    if (!err.empty()) {
        ++rec.failed;
        rec.errors.push_back(res.benchmark + ": " + err);
    }
}

/** Time build + boot the way the first bytecode of `task` waits. */
void
probeSetup(const SweepTask &task, PassRecord &rec)
{
    double build = 0.0, bootS = 0.0;
    for (int i = 0; i < kSetupProbes; ++i) {
        const double t0 = hostSeconds();
        const jvm::Program program = buildProgram(task);
        const double t1 = hostSeconds();
        const Rig rig = boot(task.config, program, true);
        const double t2 = hostSeconds();
        build = i ? std::min(build, t1 - t0) : t1 - t0;
        bootS = i ? std::min(bootS, t2 - t1) : t2 - t1;
    }
    rec.values["workloads.build_s"] = build;
    rec.values["harness.boot_s"] = bootS;
}

PassRecord
singleRunPass(const Workload &w, Mode mode)
{
    const SweepTask &task = w.tasks.front();
    const ExperimentConfig &config = task.config;
    PassRecord rec;

    if (mode == Mode::Plain) {
        probeSetup(task, rec);
        const Usage u0 = usage();
        const double w0 = hostSeconds();
        const ExperimentResult res =
            harness::runExperiment(config, task.profile);
        const double w1 = hostSeconds();
        const Usage u1 = usage();
        rec.values["wall_s"] = w1 - w0;
        rec.values["cpu_s"] = u1.cpuSeconds - u0.cpuSeconds;
        rec.values["peak_rss_mb"] = u1.peakRssMiB;
        rec.values["jvm.bytecodes"] =
            static_cast<double>(res.run.bytecodesExecuted);
        countResult(rec, res);
        rec.simFingerprint = simFingerprint(res.run, res.counters);
        rec.fullFingerprint = fullFingerprint(res);
        return rec;
    }

    if (mode == Mode::Detached) {
        const double t0 = hostSeconds();
        const jvm::Program program = buildProgram(task);
        Rig rig = boot(config, program, false);
        const jvm::RunResult run = rig.vm->run();
        const sim::PerfCounters counters = rig.system->counters();
        const double t1 = hostSeconds();
        rec.values["wall_s"] = t1 - t0;
        rec.attempted = 1;
        rec.simFingerprint = simFingerprint(run, counters);
        return rec;
    }

    // Traced: runExperiment's pipeline, stage by stage.
    ExperimentResult res;
    res.config = config;
    res.benchmark = task.profile.name;
    const double t0 = hostSeconds();
    const jvm::Program program = buildProgram(task);
    const double t1 = hostSeconds();
    Rig rig = boot(config, program, true);
    ComponentClock clock(rig.vm->port());
    const double t2 = hostSeconds();
    clock.start();
    res.run = rig.vm->run();
    clock.stop();
    const double t3 = hostSeconds();
    rig.truth->finalize();
    rig.daq->stop();
    rig.hpm->stop();
    res.counters = rig.system->counters();
    const double t4 = hostSeconds();
    res.attribution = core::attribute(rig.daq->trace(), rig.hpm->trace());
    for (std::size_t i = 0; i < core::kNumComponents; ++i)
        res.groundTruth[i] =
            rig.truth->slice(static_cast<core::ComponentId>(i));
    res.groundTruthCpuJoules = rig.truth->totalCpuJoules();
    res.groundTruthMemJoules = rig.truth->totalMemJoules();
    const double t5 = hostSeconds();

    rec.spans = {{"workloads.build", t0, t1},
                 {"harness.boot", t1, t2},
                 {"jvm.run", t2, t3},
                 {"core.stop", t3, t4},
                 {"core.attribute", t4, t5}};
    auto &v = rec.values;
    v["wall_s"] = t5 - t0;
    v["workloads.build_s"] = t1 - t0;
    v["harness.boot_s"] = t2 - t1;
    using core::ComponentId;
    const double app = clock.seconds(ComponentId::App);
    const double gc = clock.seconds(ComponentId::Gc);
    const double total = clock.totalSeconds();
    v["jvm.app_s"] = app;
    v["jvm.gc_s"] = gc;
    v["jvm.other_s"] = total - app - gc;
    v["jvm.app_share"] = total > 0 ? app / total : 0.0;
    v["jvm.gc_share"] = total > 0 ? gc / total : 0.0;
    addCounts(v, res);
    finishRatios(v);
    v["core.port_writes"] =
        static_cast<double>(rig.vm->port().writeCount());
    const double bytecodes = v["jvm.bytecodes"];
    const double objects =
        v["jvm.gc.objects_copied"] + v["jvm.gc.objects_marked"];
    v["jvm.app_ns_per_bytecode"] = bytecodes > 0 ? app / bytecodes * 1e9
                                                 : 0.0;
    v["jvm.gc_ns_per_object"] = objects > 0 ? gc / objects * 1e9 : 0.0;
    countResult(rec, res);
    rec.simFingerprint = simFingerprint(res.run, res.counters);
    rec.fullFingerprint = fullFingerprint(res);
    return rec;
}

PassRecord
sweepPass(const Workload &w, Mode mode, const std::string &workdir)
{
    if (mode == Mode::Detached)
        throw std::invalid_argument("the sweep has no detached pass");
    PassRecord rec;
    namespace fs = std::filesystem;
    fs::create_directories(workdir);
    const std::string journal = workdir + "/journal.jsonl";
    const std::string store = workdir + "/results.kv";
    fs::remove(journal);
    fs::remove(store);

    if (mode == Mode::Plain) {
        // Build and boot of the first Jikes/P6 shard (co-tenancy shards
        // boot through TenantSet instead); the engine's own start-up
        // until it hands out the first shard is added below.
        std::size_t g = 0;
        while (w.tasks[g].config.tenants > 0)
            ++g;
        SweepTask first = w.tasks[g];
        first.config.seed =
            harness::SweepRunner::taskSeed(first.config.seed, g);
        probeSetup(first, rec);
    }

    Fingerprint keys;
    for (const auto &task : w.tasks)
        keys.add(harness::shardKey(task));

    const bool traced = mode == Mode::Traced;
    std::mutex mutex;
    std::vector<PassRecord::Span> spans;
    std::map<std::string, double> counts;
    std::once_flag firstShard;
    double firstShardStart = 0.0;
    harness::JobEngine::Config jc;
    jc.checkpointPath = journal;
    jc.resultStorePath = store;
    jc.jobs = w.workers;
    jc.execute = [&](const SweepTask &task) {
        std::call_once(firstShard,
                       [&firstShardStart] { firstShardStart = hostSeconds(); });
        const double t0 = traced ? hostSeconds() : 0.0;
        ExperimentResult res =
            harness::runExperiment(task.config, task.profile);
        const double t1 = traced ? hostSeconds() : 0.0;
        // The engine journals OOM itself; a conservation failure has
        // to be raised as a harness failure to reach the report.
        const std::string err = checkResult(res);
        if (!err.empty() && res.ok()) {
            res.failed = true;
            res.failMessage = err;
        }
        if (traced) {
            std::lock_guard<std::mutex> lock(mutex);
            spans.push_back({shardClass(task.config), t0, t1});
            addCounts(counts, res);
        }
        return res;
    };

    const Usage u0 = usage();
    const double w0 = hostSeconds();
    const harness::JobReport report = harness::JobEngine(jc).run(
        w.tasks, "perfbench-sweep", keys.hex());
    const double w1 = hostSeconds();
    const Usage u1 = usage();

    std::ostringstream os;
    harness::writeJobReport(os, report);
    rec.fullFingerprint = Fingerprint().add(os.str()).hex();
    Fingerprint sim;
    double bytecodes = 0.0;
    for (const auto &r : report.records) {
        sim.add(static_cast<std::uint64_t>(r.shard))
            .add(r.bytecodes)
            .add(r.gcCollections);
        bytecodes += static_cast<double>(r.bytecodes);
        if (!r.ok)
            rec.errors.push_back(r.key + ": " + r.error);
    }
    rec.simFingerprint = sim.hex();
    rec.attempted = w.tasks.size();
    rec.failed = report.failures() + (w.tasks.size() - report.records.size());

    auto &v = rec.values;
    const double wall = w1 - w0;
    v["wall_s"] = wall;
    v["cpu_s"] = u1.cpuSeconds - u0.cpuSeconds;
    v["peak_rss_mb"] = u1.peakRssMiB;
    v["jvm.bytecodes"] = bytecodes;
    v["harness.job_engine.journal_bytes"] =
        static_cast<double>(fs::file_size(journal));
    fs::remove(journal);
    fs::remove(store);
    if (!traced) {
        v["harness.boot_s"] += firstShardStart - w0;
        return rec;
    }

    for (const auto &[name, value] : counts)
        v[name] = value;
    finishRatios(v);
    std::vector<ShardSpan> intervals;
    std::vector<double> seconds;
    double shardTotal = 0.0;
    for (const auto &s : spans) {
        intervals.push_back({s.start, s.end});
        seconds.push_back(s.end - s.start);
        shardTotal += s.end - s.start;
        v["harness.job_engine.class_s." + s.name] += s.end - s.start;
    }
    const unsigned workers = static_cast<unsigned>(
        std::min<std::size_t>(w.workers, w.tasks.size()));
    v["harness.job_engine.shard_s.p50"] = median(seconds);
    v["harness.job_engine.shard_s.max"] =
        seconds.empty() ? 0.0
                        : *std::max_element(seconds.begin(), seconds.end());
    v["harness.job_engine.busy_frac"] =
        busyFraction(intervals, wall, workers);
    v["harness.job_engine.tail_s"] = tailSeconds(intervals, workers);
    v["sim.host_ns_per_instruction"] =
        v["sim.instructions"] > 0
            ? shardTotal / v["sim.instructions"] * 1e9
            : 0.0;
    rec.spans = std::move(spans);
    return rec;
}

} // namespace

bool
parseMode(const std::string &name, Mode *out)
{
    if (name == "plain")
        *out = Mode::Plain;
    else if (name == "traced")
        *out = Mode::Traced;
    else if (name == "detached")
        *out = Mode::Detached;
    else
        return false;
    return true;
}

Workload
makeWorkload(const std::string &name, std::uint64_t seed, bool tiny)
{
    Workload w;
    w.name = name;
    const auto dataset = tiny ? workloads::DatasetScale::Small
                              : workloads::DatasetScale::Full;
    if (name == "mutator") {
        // Compute-dense _201_compress in a roomy GenCopy heap: the
        // trace executor and the cache model's hit path do the work.
        ExperimentConfig cfg;
        cfg.collector = jvm::CollectorKind::GenCopy;
        cfg.heapNominalMB = 128;
        cfg.dataset = dataset;
        w.tasks.push_back(makeTask("_201_compress", cfg, seed));
    } else if (name == "gc") {
        // BM_EndToEndGcHeavy: pmd's live set against the tightest
        // SemiSpace heap, so Cheney evacuation and cache misses lead.
        ExperimentConfig cfg;
        cfg.collector = jvm::CollectorKind::SemiSpace;
        cfg.heapNominalMB = 32;
        cfg.dataset = dataset;
        w.tasks.push_back(makeTask("pmd", cfg, seed));
    } else if (name == "sweep") {
        w.sweep = true;
        w.tasks = sweepTasks(seed, tiny);
        w.workers = std::min(availableCpus(), 4u);
    } else {
        throw std::invalid_argument("unknown workload \"" + name + "\"");
    }
    return w;
}

std::string
checkResult(const ExperimentResult &res)
{
    if (!res.ok()) {
        if (res.failed)
            return "harness failure: " + res.failMessage;
        return res.run.outOfMemory ? "out of memory" : "stack overflow";
    }
    const auto off = [](double measured, double truth, double tol) {
        return std::fabs(measured - truth) > truth * tol;
    };
    if (off(res.attribution.totalCpuJoules, res.groundTruthCpuJoules,
            kCpuJoulesTolerance))
        return "measured CPU joules do not reconcile with ground truth";
    if (off(res.attribution.totalMemJoules, res.groundTruthMemJoules,
            kMemJoulesTolerance))
        return "measured memory joules do not reconcile with ground "
               "truth";
    return "";
}

PassRecord
runPass(const Workload &workload, Mode mode, const std::string &workdir)
{
    return workload.sweep ? sweepPass(workload, mode, workdir)
                          : singleRunPass(workload, mode);
}

} // namespace perfbench
} // namespace javelin
