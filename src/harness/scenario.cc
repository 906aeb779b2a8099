#include "harness/scenario.hh"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <sstream>

#include "jvm/gc/collector.hh"
#include "sim/platform.hh"
#include "util/json.hh"

namespace javelin {
namespace harness {

namespace {

constexpr const char *kSchema = "javelin-scenario-v1";
/** Largest nominal heap a scenario or a command line may ask for. */
constexpr std::uint64_t kMaxHeapMB = 4096;

const char *
datasetName(workloads::DatasetScale d)
{
    return d == workloads::DatasetScale::Full ? "Full" : "Small";
}

[[noreturn]] void
failAt(int line, const std::string &msg)
{
    throw ScenarioError("line " + std::to_string(line) + ": " + msg);
}

sim::PlatformKind
parsePlatform(const json::Value &v)
{
    const std::string &s = v.asString();
    if (s == "P6")
        return sim::PlatformKind::P6;
    if (s == "PXA255")
        return sim::PlatformKind::Pxa255;
    failAt(v.line, "unknown platform \"" + s + "\" (P6, PXA255)");
}

jvm::VmKind
parseVm(const json::Value &v)
{
    const std::string &s = v.asString();
    for (const auto kind : {jvm::VmKind::Jikes, jvm::VmKind::Kaffe})
        if (s == jvm::vmKindName(kind))
            return kind;
    failAt(v.line, "unknown vm \"" + s + "\" (JikesRVM, Kaffe)");
}

jvm::CollectorKind
parseCollector(const json::Value &v)
{
    const std::string &s = v.asString();
    for (const auto kind :
         {jvm::CollectorKind::SemiSpace, jvm::CollectorKind::MarkSweep,
          jvm::CollectorKind::GenCopy, jvm::CollectorKind::GenMS,
          jvm::CollectorKind::IncrementalMS})
        if (s == jvm::collectorName(kind))
            return kind;
    failAt(v.line, "unknown collector \"" + s +
                       "\" (SemiSpace, MarkSweep, GenCopy, GenMS, "
                       "IncMS)");
}

workloads::DatasetScale
parseDataset(const json::Value &v)
{
    const std::string &s = v.asString();
    if (s == "Full")
        return workloads::DatasetScale::Full;
    if (s == "Small")
        return workloads::DatasetScale::Small;
    failAt(v.line, "unknown dataset \"" + s + "\" (Full, Small)");
}

workloads::ArrivalKind
parseArrival(const json::Value &v)
{
    workloads::ArrivalKind kind;
    if (!workloads::parseArrivalKind(v.asString(), &kind))
        failAt(v.line, "unknown arrival \"" + v.asString() +
                           "\" (Poisson, Bursty, Diurnal)");
    return kind;
}

std::uint32_t
parseTenants(const json::Value &v)
{
    const std::uint64_t n = v.asU64();
    if (n > 64)
        failAt(v.line, "tenants " + std::to_string(n) +
                           " out of range [0, 64]");
    return static_cast<std::uint32_t>(n);
}

std::uint32_t
parseHeapMB(const json::Value &v)
{
    const std::uint64_t mb = v.asU64();
    if (mb < 1 || mb > kMaxHeapMB)
        failAt(v.line, "heap_mb " + std::to_string(mb) +
                           " out of range [1, " +
                           std::to_string(kMaxHeapMB) + "]");
    return static_cast<std::uint32_t>(mb);
}

int
parseDvfsPoint(const json::Value &v)
{
    const std::int64_t p = v.asI64();
    if (p < -1 || p > 15)
        failAt(v.line, "dvfs_point " + std::to_string(p) +
                           " out of range [-1, 15]");
    return static_cast<int>(p);
}

double
parseNonNegative(const json::Value &v, const char *what)
{
    const double d = v.asDouble();
    if (!(d >= 0.0))
        failAt(v.line, std::string(what) + " must be >= 0");
    return d;
}

std::string
validatedBenchmark(const json::Value &v)
{
    const std::string &name = v.asString();
    for (const auto &p : workloads::allBenchmarks())
        if (p.name == name)
            return name;
    failAt(v.line, "unknown benchmark \"" + name + "\"");
}

/** Wrap json::ParseError as ScenarioError (message keeps "line N:"). */
template <typename Fn>
auto
rethrowAsScenarioError(Fn &&fn) -> decltype(fn())
{
    try {
        return fn();
    } catch (const json::ParseError &e) {
        throw ScenarioError(e.what());
    }
}

void
parseBase(const json::Value &obj, ExperimentConfig &cfg)
{
    for (const auto &[key, v] : obj.members) {
        if (key == "platform") {
            cfg.platform = parsePlatform(v);
        } else if (key == "vm") {
            cfg.vm = parseVm(v);
        } else if (key == "collector") {
            cfg.collector = parseCollector(v);
        } else if (key == "heap_mb") {
            cfg.heapNominalMB = parseHeapMB(v);
        } else if (key == "dataset") {
            cfg.dataset = parseDataset(v);
        } else if (key == "heap_scale") {
            cfg.heapScale = v.asDouble();
            if (!(cfg.heapScale > 0.0) || cfg.heapScale > 16.0)
                failAt(v.line, "heap_scale out of range (0, 16]");
        } else if (key == "scale_caches") {
            cfg.scaleCaches = v.asBool();
        } else if (key == "daq_period_ticks") {
            cfg.daqPeriod = v.asU64();
        } else if (key == "hpm_period_ticks") {
            cfg.hpmPeriod = v.asU64();
        } else if (key == "hpm_isr_cost_cycles") {
            cfg.hpmIsrCostCycles =
                parseNonNegative(v, "hpm_isr_cost_cycles");
        } else if (key == "sense_noise_volts_rms") {
            cfg.senseNoiseVoltsRms =
                parseNonNegative(v, "sense_noise_volts_rms");
        } else if (key == "charge_port_writes") {
            cfg.chargePortWrites = v.asBool();
        } else if (key == "adaptive_optimization") {
            cfg.adaptiveOptimization = v.asBool();
        } else if (key == "charge_barrier_cost") {
            cfg.chargeBarrierCost = v.asBool();
        } else if (key == "dvfs_point") {
            cfg.dvfsPoint = parseDvfsPoint(v);
        } else if (key == "tenants") {
            cfg.tenants = parseTenants(v);
        } else if (key == "arrival") {
            cfg.arrival = parseArrival(v);
        } else if (key == "request_rate_hz") {
            cfg.requestRateHz = v.asDouble();
            if (!(cfg.requestRateHz > 0.0))
                failAt(v.line, "request_rate_hz must be > 0");
        } else if (key == "requests_per_tenant") {
            const std::uint64_t r = v.asU64();
            if (r > 100000)
                failAt(v.line, "requests_per_tenant out of range "
                               "[0, 100000]");
            cfg.requestsPerTenant = static_cast<std::uint32_t>(r);
        } else if (key == "tenant_collector_rotate") {
            cfg.tenantCollectorRotate = v.asBool();
        } else if (key == "seed") {
            cfg.seed = v.asU64();
        } else {
            failAt(v.line, "unknown key \"" + key + "\" in \"base\"");
        }
    }
}

template <typename T, typename Fn>
std::vector<T>
parseAxis(const json::Value &v, const char *axis, Fn &&element)
{
    if (!v.isArray())
        failAt(v.line, std::string("sweep axis \"") + axis +
                           "\" must be an array");
    if (v.items.empty())
        failAt(v.line, std::string("sweep axis \"") + axis +
                           "\" must not be empty");
    std::vector<T> out;
    for (const auto &item : v.items) {
        T value = element(item);
        if (std::find(out.begin(), out.end(), value) != out.end())
            failAt(item.line, std::string("duplicate value in sweep "
                                          "axis \"") +
                                  axis + "\"");
        out.push_back(std::move(value));
    }
    return out;
}

void
parseSweep(const json::Value &obj, Scenario &s)
{
    for (const auto &[key, v] : obj.members) {
        if (key == "benchmark") {
            s.benchmarks = parseAxis<std::string>(
                v, "benchmark", validatedBenchmark);
        } else if (key == "platform") {
            s.platforms = parseAxis<sim::PlatformKind>(v, "platform",
                                                       parsePlatform);
        } else if (key == "vm") {
            s.vms = parseAxis<jvm::VmKind>(v, "vm", parseVm);
        } else if (key == "collector") {
            s.collectors = parseAxis<jvm::CollectorKind>(
                v, "collector", parseCollector);
        } else if (key == "heap_mb") {
            s.heapsMB =
                parseAxis<std::uint32_t>(v, "heap_mb", parseHeapMB);
        } else if (key == "dvfs_point") {
            s.dvfsPoints =
                parseAxis<int>(v, "dvfs_point", parseDvfsPoint);
        } else if (key == "tenants") {
            s.tenantCounts =
                parseAxis<std::uint32_t>(v, "tenants", parseTenants);
        } else if (key == "arrival") {
            s.arrivals = parseAxis<workloads::ArrivalKind>(
                v, "arrival", parseArrival);
        } else if (key == "seed") {
            s.seeds = parseAxis<std::uint64_t>(
                v, "seed",
                [](const json::Value &e) { return e.asU64(); });
        } else {
            failAt(v.line, "unknown key \"" + key + "\" in \"sweep\"");
        }
    }
    if (s.benchmarks.empty())
        failAt(obj.line, "\"sweep\" must list at least one benchmark");
}

/** Effective axis: the sweep list, or the base value alone. */
template <typename T>
std::vector<T>
effectiveAxis(const std::vector<T> &axis, const T &base)
{
    if (!axis.empty())
        return axis;
    return {base};
}

} // namespace

std::size_t
Scenario::shardCount() const
{
    std::size_t n = benchmarks.size();
    n *= platforms.empty() ? 1 : platforms.size();
    n *= vms.empty() ? 1 : vms.size();
    n *= collectors.empty() ? 1 : collectors.size();
    n *= heapsMB.empty() ? 1 : heapsMB.size();
    n *= dvfsPoints.empty() ? 1 : dvfsPoints.size();
    n *= tenantCounts.empty() ? 1 : tenantCounts.size();
    n *= arrivals.empty() ? 1 : arrivals.size();
    n *= seeds.empty() ? 1 : seeds.size();
    return n;
}

Scenario
parseScenario(const std::string &text)
{
    return rethrowAsScenarioError([&] {
        const json::Value doc = json::parse(text);
        if (!doc.isObject())
            failAt(doc.line, "scenario must be a JSON object");

        Scenario s;
        bool sawSchema = false;
        for (const auto &[key, v] : doc.members) {
            if (key == "schema") {
                if (v.asString() != kSchema)
                    failAt(v.line, "unsupported schema \"" +
                                       v.asString() + "\" (expected " +
                                       kSchema + ")");
                sawSchema = true;
            } else if (key == "name") {
                s.name = v.asString();
            } else if (key == "base") {
                if (!v.isObject())
                    failAt(v.line, "\"base\" must be an object");
                parseBase(v, s.base);
            } else if (key == "sweep") {
                if (!v.isObject())
                    failAt(v.line, "\"sweep\" must be an object");
                parseSweep(v, s);
            } else {
                failAt(v.line, "unknown key \"" + key + "\"");
            }
        }
        if (!sawSchema)
            failAt(doc.line, "missing \"schema\" key");
        if (s.benchmarks.empty())
            failAt(doc.line,
                   "missing \"sweep\" with a \"benchmark\" axis");
        return s;
    });
}

Scenario
parseScenarioFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw ScenarioError("cannot open scenario file " + path);
    std::ostringstream buf;
    buf << in.rdbuf();
    try {
        return parseScenario(buf.str());
    } catch (const ScenarioError &e) {
        throw ScenarioError(path + ": " + e.what());
    }
}

bool
parseHeapArg(const char *text, std::uint32_t &mb)
{
    std::uint64_t v = 0;
    if (!SweepRunner::parseCount(text, v) || v < 1 || v > kMaxHeapMB)
        return false;
    mb = static_cast<std::uint32_t>(v);
    return true;
}

void
writeScenario(std::ostream &os, const Scenario &s)
{
    const ExperimentConfig &b = s.base;
    os << "{\n";
    os << "  \"schema\": \"" << kSchema << "\",\n";
    os << "  \"name\": ";
    json::writeString(os, s.name);
    os << ",\n  \"base\": {\n";
    os << "    \"platform\": \"" << sim::platformName(b.platform) << "\",\n";
    os << "    \"vm\": \"" << jvm::vmKindName(b.vm) << "\",\n";
    os << "    \"collector\": \"" << jvm::collectorName(b.collector)
       << "\",\n";
    os << "    \"heap_mb\": " << b.heapNominalMB << ",\n";
    os << "    \"dataset\": \"" << datasetName(b.dataset) << "\",\n";
    os << "    \"heap_scale\": ";
    json::writeNumber(os, b.heapScale);
    os << ",\n    \"scale_caches\": "
       << (b.scaleCaches ? "true" : "false") << ",\n";
    os << "    \"daq_period_ticks\": " << b.daqPeriod << ",\n";
    os << "    \"hpm_period_ticks\": " << b.hpmPeriod << ",\n";
    os << "    \"hpm_isr_cost_cycles\": ";
    json::writeNumber(os, b.hpmIsrCostCycles);
    os << ",\n    \"sense_noise_volts_rms\": ";
    json::writeNumber(os, b.senseNoiseVoltsRms);
    os << ",\n    \"charge_port_writes\": "
       << (b.chargePortWrites ? "true" : "false") << ",\n";
    os << "    \"adaptive_optimization\": "
       << (b.adaptiveOptimization ? "true" : "false") << ",\n";
    os << "    \"charge_barrier_cost\": "
       << (b.chargeBarrierCost ? "true" : "false") << ",\n";
    os << "    \"dvfs_point\": " << b.dvfsPoint << ",\n";
    os << "    \"tenants\": " << b.tenants << ",\n";
    os << "    \"arrival\": \"" << workloads::arrivalKindName(b.arrival)
       << "\",\n";
    os << "    \"request_rate_hz\": ";
    json::writeNumber(os, b.requestRateHz);
    os << ",\n    \"requests_per_tenant\": " << b.requestsPerTenant
       << ",\n";
    os << "    \"tenant_collector_rotate\": "
       << (b.tenantCollectorRotate ? "true" : "false") << ",\n";
    os << "    \"seed\": " << b.seed << "\n";
    os << "  },\n";
    os << "  \"sweep\": {\n";
    os << "    \"benchmark\": [";
    for (std::size_t i = 0; i < s.benchmarks.size(); ++i) {
        os << (i ? ", " : "");
        json::writeString(os, s.benchmarks[i]);
    }
    os << "]";
    if (!s.platforms.empty()) {
        os << ",\n    \"platform\": [";
        for (std::size_t i = 0; i < s.platforms.size(); ++i)
            os << (i ? ", " : "") << '"'
               << sim::platformName(s.platforms[i]) << '"';
        os << "]";
    }
    if (!s.vms.empty()) {
        os << ",\n    \"vm\": [";
        for (std::size_t i = 0; i < s.vms.size(); ++i)
            os << (i ? ", " : "") << '"' << jvm::vmKindName(s.vms[i])
               << '"';
        os << "]";
    }
    if (!s.collectors.empty()) {
        os << ",\n    \"collector\": [";
        for (std::size_t i = 0; i < s.collectors.size(); ++i)
            os << (i ? ", " : "") << '"'
               << jvm::collectorName(s.collectors[i]) << '"';
        os << "]";
    }
    if (!s.heapsMB.empty()) {
        os << ",\n    \"heap_mb\": [";
        for (std::size_t i = 0; i < s.heapsMB.size(); ++i)
            os << (i ? ", " : "") << s.heapsMB[i];
        os << "]";
    }
    if (!s.dvfsPoints.empty()) {
        os << ",\n    \"dvfs_point\": [";
        for (std::size_t i = 0; i < s.dvfsPoints.size(); ++i)
            os << (i ? ", " : "") << s.dvfsPoints[i];
        os << "]";
    }
    if (!s.tenantCounts.empty()) {
        os << ",\n    \"tenants\": [";
        for (std::size_t i = 0; i < s.tenantCounts.size(); ++i)
            os << (i ? ", " : "") << s.tenantCounts[i];
        os << "]";
    }
    if (!s.arrivals.empty()) {
        os << ",\n    \"arrival\": [";
        for (std::size_t i = 0; i < s.arrivals.size(); ++i)
            os << (i ? ", " : "") << '"'
               << workloads::arrivalKindName(s.arrivals[i]) << '"';
        os << "]";
    }
    if (!s.seeds.empty()) {
        os << ",\n    \"seed\": [";
        for (std::size_t i = 0; i < s.seeds.size(); ++i)
            os << (i ? ", " : "") << s.seeds[i];
        os << "]";
    }
    os << "\n  }\n}\n";
}

std::string
scenarioHash(const Scenario &s)
{
    std::ostringstream canon;
    writeScenario(canon, s);
    const std::string text = canon.str();
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : text) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    std::ostringstream hex;
    hex << std::hex;
    hex.width(16);
    hex.fill('0');
    hex << h;
    return hex.str();
}

std::vector<SweepTask>
expandScenario(const Scenario &s)
{
    const auto platforms =
        effectiveAxis(s.platforms, s.base.platform);
    const auto vms = effectiveAxis(s.vms, s.base.vm);
    const auto collectors =
        effectiveAxis(s.collectors, s.base.collector);
    const auto heaps = effectiveAxis(s.heapsMB, s.base.heapNominalMB);
    const auto dvfs = effectiveAxis(s.dvfsPoints, s.base.dvfsPoint);
    const auto tenants = effectiveAxis(s.tenantCounts, s.base.tenants);
    const auto arrivals = effectiveAxis(s.arrivals, s.base.arrival);
    const auto seeds = effectiveAxis(s.seeds, s.base.seed);

    std::vector<SweepTask> tasks;
    tasks.reserve(s.shardCount());
    for (const auto &bench : s.benchmarks)
        for (const auto platform : platforms)
            for (const auto vm : vms)
                for (const auto collector : collectors)
                    for (const auto heap : heaps)
                        for (const auto point : dvfs)
                            for (const auto tc : tenants)
                                for (const auto arr : arrivals)
                                    for (const auto seed : seeds) {
                                        ExperimentConfig cfg = s.base;
                                        cfg.platform = platform;
                                        cfg.vm = vm;
                                        cfg.collector = collector;
                                        cfg.heapNominalMB = heap;
                                        cfg.dvfsPoint = point;
                                        cfg.tenants = tc;
                                        cfg.arrival = arr;
                                        cfg.seed = seed;
                                        tasks.push_back(
                                            {cfg, workloads::benchmark(
                                                      bench)});
                                    }
    return tasks;
}

std::string
shardKey(const SweepTask &task)
{
    std::ostringstream key;
    key << task.profile.name << '/'
        << jvm::vmKindName(task.config.vm) << '/'
        << jvm::collectorName(task.config.collector) << '/'
        << task.config.heapNominalMB << "MB/"
        << sim::platformName(task.config.platform) << "/dvfs"
        << task.config.dvfsPoint << "/s" << task.config.seed;
    // Co-tenancy shards carry their service axes; classic shards keep
    // their historical keys so existing checkpoints stay resumable.
    if (task.config.tenants > 0)
        key << "/t" << task.config.tenants << '/'
            << workloads::arrivalKindName(task.config.arrival) << "/r"
            << task.config.requestRateHz;
    return key.str();
}

Scenario
builtinScenario(const std::string &name)
{
    Scenario s;
    s.name = name;
    if (name == "fig07-edp") {
        // The Fig. 7 matrix: all 16 benchmarks x the four Jikes
        // collectors x the P6 heap ladder.
        for (const auto &p : workloads::allBenchmarks())
            s.benchmarks.push_back(p.name);
        s.collectors = {
            jvm::CollectorKind::SemiSpace, jvm::CollectorKind::MarkSweep,
            jvm::CollectorKind::GenCopy, jvm::CollectorKind::GenMS};
        s.heapsMB.assign(kP6HeapsMB.begin(), kP6HeapsMB.end());
    } else if (name == "abl-dvfs") {
        // Ablation A4: every P6 operating point for a compute-bound
        // and a GC-bound benchmark under GenCopy at 32 MB.
        s.base.collector = jvm::CollectorKind::GenCopy;
        s.base.heapNominalMB = 32;
        s.benchmarks = {"_222_mpegaudio", "_213_javac"};
        const std::size_t points = sim::p6Spec().dvfsPoints.size();
        for (std::size_t i = 0; i < points; ++i)
            s.dvfsPoints.push_back(static_cast<int>(i));
    } else if (name == "ensemble-regression") {
        // The energy-regression gate matrix (bench/ensemble_report):
        // GC-bound and mutator-bound corners, small dataset.
        s.base.dataset = workloads::DatasetScale::Small;
        s.base.heapNominalMB = 32;
        s.benchmarks = {"_202_jess", "_209_db"};
        s.collectors = {jvm::CollectorKind::SemiSpace,
                        jvm::CollectorKind::GenMS};
    } else if (name == "cotenancy-interference") {
        // The co-tenancy interference matrix (DESIGN.md §11): a GC-
        // bound and a mutator-bound benchmark, a copying and a
        // generational mark-sweep collector, 1/2/4 tenants sharing the
        // P6 power budget under Poisson arrivals.
        s.base.dataset = workloads::DatasetScale::Small;
        s.base.heapNominalMB = 32;
        s.base.tenants = 2;
        s.base.requestsPerTenant = 24;
        s.base.requestRateHz = 3000.0;
        s.benchmarks = {"_202_jess", "_209_db"};
        s.collectors = {jvm::CollectorKind::SemiSpace,
                        jvm::CollectorKind::GenMS};
        s.tenantCounts = {1, 2, 4};
    } else {
        throw ScenarioError("unknown builtin scenario \"" + name +
                            "\"");
    }
    return s;
}

const std::vector<std::string> &
builtinScenarioNames()
{
    static const std::vector<std::string> names = {
        "fig07-edp", "abl-dvfs", "ensemble-regression",
        "cotenancy-interference"};
    return names;
}

} // namespace harness
} // namespace javelin
