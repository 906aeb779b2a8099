/**
 * @file
 * Scenario-layer tests: every ExperimentConfig field round-trips
 * through the JSON form, strict validation rejects unknown keys and
 * out-of-range values with line-numbered errors, expansion order and
 * shard keys are stable, and the committed per-driver fixtures under
 * tests/fixtures/ are exactly the canonical serializations of the
 * builtin scenarios the drivers run.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>

#include "harness/scenario.hh"
#include "sim/platform.hh"

using namespace javelin;
using namespace javelin::harness;

namespace {

std::string
serialize(const Scenario &s)
{
    std::ostringstream os;
    writeScenario(os, s);
    return os.str();
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(static_cast<bool>(in)) << "cannot open " << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** Expect a ScenarioError whose message contains `needle`. */
void
expectRejected(const std::string &text, const std::string &needle)
{
    try {
        parseScenario(text);
        FAIL() << "expected rejection mentioning \"" << needle
               << "\"";
    } catch (const ScenarioError &e) {
        EXPECT_NE(std::string(e.what()).find(needle),
                  std::string::npos)
            << "actual message: " << e.what();
    }
}

} // namespace

TEST(Scenario, EveryConfigFieldRoundTrips)
{
    Scenario s;
    s.name = "round-trip";
    s.benchmarks = {"_202_jess"};
    // Every ExperimentConfig field set away from its default.
    s.base.platform = sim::PlatformKind::Pxa255;
    s.base.vm = jvm::VmKind::Kaffe;
    s.base.collector = jvm::CollectorKind::IncrementalMS;
    s.base.heapNominalMB = 20;
    s.base.dataset = workloads::DatasetScale::Small;
    s.base.heapScale = 0.125;
    s.base.scaleCaches = false;
    s.base.daqPeriod = 12345678;
    s.base.hpmPeriod = 987654321;
    s.base.hpmIsrCostCycles = 250.5;
    s.base.senseNoiseVoltsRms = 0.00075;
    s.base.chargePortWrites = false;
    s.base.adaptiveOptimization = false;
    s.base.chargeBarrierCost = false;
    s.base.dvfsPoint = 2;
    s.base.tenants = 3;
    s.base.arrival = workloads::ArrivalKind::Bursty;
    s.base.requestRateHz = 1250.0;
    s.base.requestsPerTenant = 17;
    s.base.tenantCollectorRotate = true;
    s.base.seed = 0xdeadbeefcafef00dULL; // needs > 53 bits to survive

    const std::string text = serialize(s);
    const Scenario parsed = parseScenario(text);

    EXPECT_EQ(parsed.name, s.name);
    EXPECT_EQ(parsed.benchmarks, s.benchmarks);
    EXPECT_EQ(parsed.base.platform, s.base.platform);
    EXPECT_EQ(parsed.base.vm, s.base.vm);
    EXPECT_EQ(parsed.base.collector, s.base.collector);
    EXPECT_EQ(parsed.base.heapNominalMB, s.base.heapNominalMB);
    EXPECT_EQ(parsed.base.dataset, s.base.dataset);
    EXPECT_DOUBLE_EQ(parsed.base.heapScale, s.base.heapScale);
    EXPECT_EQ(parsed.base.scaleCaches, s.base.scaleCaches);
    EXPECT_EQ(parsed.base.daqPeriod, s.base.daqPeriod);
    EXPECT_EQ(parsed.base.hpmPeriod, s.base.hpmPeriod);
    EXPECT_DOUBLE_EQ(parsed.base.hpmIsrCostCycles,
                     s.base.hpmIsrCostCycles);
    EXPECT_DOUBLE_EQ(parsed.base.senseNoiseVoltsRms,
                     s.base.senseNoiseVoltsRms);
    EXPECT_EQ(parsed.base.chargePortWrites, s.base.chargePortWrites);
    EXPECT_EQ(parsed.base.adaptiveOptimization,
              s.base.adaptiveOptimization);
    EXPECT_EQ(parsed.base.chargeBarrierCost, s.base.chargeBarrierCost);
    EXPECT_EQ(parsed.base.dvfsPoint, s.base.dvfsPoint);
    EXPECT_EQ(parsed.base.tenants, s.base.tenants);
    EXPECT_EQ(parsed.base.arrival, s.base.arrival);
    EXPECT_DOUBLE_EQ(parsed.base.requestRateHz, s.base.requestRateHz);
    EXPECT_EQ(parsed.base.requestsPerTenant, s.base.requestsPerTenant);
    EXPECT_EQ(parsed.base.tenantCollectorRotate,
              s.base.tenantCollectorRotate);
    EXPECT_EQ(parsed.base.seed, s.base.seed);

    // Serialization is a fixed point: write(parse(write(s))) ==
    // write(s), the property the scenario hash (and therefore the
    // checkpoint stale-detection) rests on.
    EXPECT_EQ(serialize(parsed), text);
    EXPECT_EQ(scenarioHash(parsed), scenarioHash(s));
}

TEST(Scenario, AxesRoundTrip)
{
    Scenario s;
    s.name = "axes";
    s.benchmarks = {"_202_jess", "_209_db"};
    s.platforms = {sim::PlatformKind::P6, sim::PlatformKind::Pxa255};
    s.vms = {jvm::VmKind::Jikes, jvm::VmKind::Kaffe};
    s.collectors = {jvm::CollectorKind::SemiSpace,
                    jvm::CollectorKind::GenMS};
    s.heapsMB = {32, 48, 64};
    s.dvfsPoints = {-1, 0, 3};
    s.tenantCounts = {1, 2};
    s.arrivals = {workloads::ArrivalKind::Poisson,
                  workloads::ArrivalKind::Diurnal};
    s.seeds = {1, 2, 0xffffffffffffffffULL};

    const Scenario parsed = parseScenario(serialize(s));
    EXPECT_EQ(parsed.benchmarks, s.benchmarks);
    EXPECT_EQ(parsed.platforms, s.platforms);
    EXPECT_EQ(parsed.vms, s.vms);
    EXPECT_EQ(parsed.collectors, s.collectors);
    EXPECT_EQ(parsed.heapsMB, s.heapsMB);
    EXPECT_EQ(parsed.dvfsPoints, s.dvfsPoints);
    EXPECT_EQ(parsed.tenantCounts, s.tenantCounts);
    EXPECT_EQ(parsed.arrivals, s.arrivals);
    EXPECT_EQ(parsed.seeds, s.seeds);
    EXPECT_EQ(parsed.shardCount(), 2u * 2 * 2 * 2 * 3 * 3 * 2 * 2 * 3);
    EXPECT_EQ(expandScenario(parsed).size(), parsed.shardCount());
}

TEST(Scenario, UnknownKeysRejectedWithLineNumbers)
{
    // Line 4 holds the typo'd key.
    expectRejected("{\n"
                   "  \"schema\": \"javelin-scenario-v1\",\n"
                   "  \"base\": {\n"
                   "    \"heapmb\": 32\n"
                   "  },\n"
                   "  \"sweep\": {\"benchmark\": [\"_202_jess\"]}\n"
                   "}\n",
                   "line 4: unknown key \"heapmb\"");
    expectRejected("{\n"
                   "  \"schema\": \"javelin-scenario-v1\",\n"
                   "  \"swep\": {\"benchmark\": [\"_202_jess\"]}\n"
                   "}\n",
                   "line 3: unknown key \"swep\"");
    expectRejected("{\n"
                   "  \"schema\": \"javelin-scenario-v1\",\n"
                   "  \"sweep\": {\n"
                   "    \"benchmark\": [\"_202_jess\"],\n"
                   "    \"heap\": [32]\n"
                   "  }\n"
                   "}\n",
                   "line 5: unknown key \"heap\"");
}

TEST(Scenario, OutOfRangeValuesRejected)
{
    const auto doc = [](const std::string &base) {
        return "{\n\"schema\": \"javelin-scenario-v1\",\n\"base\": " +
               base +
               ",\n\"sweep\": {\"benchmark\": [\"_202_jess\"]}\n}\n";
    };
    expectRejected(doc("{\"heap_mb\": 0}"), "out of range");
    expectRejected(doc("{\"heap_mb\": 100000}"), "out of range");
    expectRejected(doc("{\"dvfs_point\": -2}"), "out of range");
    expectRejected(doc("{\"heap_scale\": 0}"), "heap_scale");
    expectRejected(doc("{\"sense_noise_volts_rms\": -0.5}"),
                   "must be >= 0");
    expectRejected(doc("{\"hpm_isr_cost_cycles\": -1}"),
                   "must be >= 0");
    expectRejected(doc("{\"seed\": -1}"), "integer");
    expectRejected(doc("{\"platform\": \"P7\"}"), "unknown platform");
    expectRejected(doc("{\"vm\": \"Hotspot\"}"), "unknown vm");
    expectRejected(doc("{\"collector\": \"G1\"}"), "unknown collector");
    expectRejected(doc("{\"dataset\": \"Huge\"}"), "unknown dataset");
}

/** A command-line heap accepts exactly the range a scenario's heap_mb
 *  does, in parseCount's digits-only form. */
TEST(Scenario, HeapArgUsesTheHeapMbRange)
{
    std::uint32_t mb = 7;
    EXPECT_TRUE(parseHeapArg("1", mb));
    EXPECT_EQ(mb, 1u);
    EXPECT_TRUE(parseHeapArg("4096", mb));
    EXPECT_EQ(mb, 4096u);
    for (const char *bad : {"", "0", "4097", "abc", "-5", " 32", "32MB",
                            "18446744073709551616"})
        EXPECT_FALSE(parseHeapArg(bad, mb)) << bad;
    EXPECT_EQ(mb, 4096u) << "a rejected parse must not write";
}

TEST(Scenario, StructuralErrorsRejected)
{
    expectRejected("[]\n", "must be a JSON object");
    expectRejected("{\"sweep\": {\"benchmark\": [\"_202_jess\"]}}\n",
                   "missing \"schema\"");
    expectRejected("{\"schema\": \"javelin-scenario-v2\", \"sweep\": "
                   "{\"benchmark\": [\"_202_jess\"]}}\n",
                   "unsupported schema");
    expectRejected("{\"schema\": \"javelin-scenario-v1\"}\n",
                   "benchmark");
    expectRejected("{\"schema\": \"javelin-scenario-v1\", \"sweep\": "
                   "{\"benchmark\": []}}\n",
                   "must not be empty");
    expectRejected("{\"schema\": \"javelin-scenario-v1\", \"sweep\": "
                   "{\"benchmark\": [\"no_such_bench\"]}}\n",
                   "unknown benchmark");
    expectRejected("{\"schema\": \"javelin-scenario-v1\", \"sweep\": "
                   "{\"benchmark\": [\"_202_jess\", \"_202_jess\"]}}\n",
                   "duplicate value");
    // Duplicate keys come from the JSON layer but still carry a line.
    expectRejected("{\"schema\": \"javelin-scenario-v1\",\n"
                   "\"sweep\": {\"benchmark\": [\"_202_jess\"]},\n"
                   "\"sweep\": {\"benchmark\": [\"_209_db\"]}}\n",
                   "line 3: duplicate key");
}

TEST(Scenario, ExpansionOrderAndShardKeysAreStable)
{
    Scenario s;
    s.benchmarks = {"_202_jess", "_209_db"};
    s.collectors = {jvm::CollectorKind::SemiSpace,
                    jvm::CollectorKind::GenMS};
    s.heapsMB = {32, 48};
    const auto tasks = expandScenario(s);
    ASSERT_EQ(tasks.size(), 8u);
    // Benchmark-major, heap innermost: the order the compiled driver
    // loops used, so ported sweeps keep their per-task seed streams.
    EXPECT_EQ(shardKey(tasks[0]),
              "_202_jess/JikesRVM/SemiSpace/32MB/P6/dvfs-1/s7");
    EXPECT_EQ(shardKey(tasks[1]),
              "_202_jess/JikesRVM/SemiSpace/48MB/P6/dvfs-1/s7");
    EXPECT_EQ(shardKey(tasks[2]),
              "_202_jess/JikesRVM/GenMS/32MB/P6/dvfs-1/s7");
    EXPECT_EQ(shardKey(tasks[7]),
              "_209_db/JikesRVM/GenMS/48MB/P6/dvfs-1/s7");
    // Keys are unique across the expansion.
    std::set<std::string> keys;
    for (const auto &t : tasks)
        keys.insert(shardKey(t));
    EXPECT_EQ(keys.size(), tasks.size());
}

TEST(Scenario, HashDetectsAnyChange)
{
    Scenario s;
    s.benchmarks = {"_202_jess"};
    const std::string base = scenarioHash(s);
    Scenario t = s;
    t.base.seed = 8;
    EXPECT_NE(scenarioHash(t), base);
    t = s;
    t.heapsMB = {32};
    EXPECT_NE(scenarioHash(t), base);
    EXPECT_EQ(scenarioHash(s), base);
}

/**
 * The committed fixtures are byte-for-byte the canonical
 * serializations of the builtin scenarios the ported drivers run
 * (`javelin-sweep --builtin NAME --print-scenario` regenerates each).
 */
TEST(Scenario, CommittedDriverFixturesMatchBuiltins)
{
    const std::pair<const char *, const char *> fixtures[] = {
        {"fig07-edp", "fig07_edp.scenario.json"},
        {"abl-dvfs", "abl_dvfs.scenario.json"},
        {"ensemble-regression", "ensemble_regression.scenario.json"},
        {"cotenancy-interference",
         "cotenancy_interference.scenario.json"},
    };
    for (const auto &[name, file] : fixtures) {
        const std::string path =
            std::string(JAVELIN_FIXTURE_DIR) + "/" + file;
        const std::string committed = readFile(path);
        EXPECT_EQ(committed, serialize(builtinScenario(name)))
            << file << " is stale; regenerate with javelin-sweep --builtin "
            << name << " --print-scenario";
        // And the fixture itself parses and expands.
        const Scenario parsed = parseScenario(committed);
        EXPECT_EQ(expandScenario(parsed).size(), parsed.shardCount());
        EXPECT_GT(parsed.shardCount(), 0u);
    }
    EXPECT_EQ(builtinScenario("fig07-edp").shardCount(),
              16u * 4 * 7);
    EXPECT_EQ(builtinScenario("abl-dvfs").shardCount(),
              2 * sim::p6Spec().dvfsPoints.size());
    EXPECT_EQ(builtinScenario("ensemble-regression").shardCount(), 4u);
    // 2 benchmarks x 2 collectors x 3 tenant counts.
    EXPECT_EQ(builtinScenario("cotenancy-interference").shardCount(),
              12u);
    EXPECT_THROW(builtinScenario("no-such"), ScenarioError);
}

TEST(Scenario, SmokeScenarioFixtureParses)
{
    // The examples/ scenario the CI kill-and-resume smoke runs.
    const Scenario s = parseScenarioFile(
        std::string(JAVELIN_FIXTURE_DIR) +
        "/../../examples/scenarios/smoke.scenario.json");
    EXPECT_EQ(s.name, "smoke");
    EXPECT_EQ(s.shardCount(), 8u);
    EXPECT_EQ(s.base.dataset, workloads::DatasetScale::Small);
}
