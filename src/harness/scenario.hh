/**
 * @file
 * Declarative sweep scenarios: the characterization matrix as data.
 *
 * A scenario is a JSON document (schema "javelin-scenario-v1") giving a
 * base ExperimentConfig plus sweep axes (benchmark, platform, vm,
 * collector, heap, DVFS point, seed). expandScenario() takes the cross
 * product in a fixed axis order and yields the same SweepTask list the
 * compiled-in driver loops used to build, so sweeps move from code into
 * committed files that `javelin-sweep` executes, checkpoints, and
 * resumes (harness/job_engine.hh).
 *
 * Parsing is strict: unknown keys, duplicate keys, out-of-range values
 * and unknown benchmark/enum names are all rejected with the offending
 * source line ("line 12: unknown key ..."), so a typo'd knob can never
 * silently run the default matrix. Canonical serialization
 * (writeScenario) writes every base field explicitly; scenarioHash()
 * fingerprints that canonical form and is what the job engine stamps
 * into checkpoints to refuse stale resumes.
 */

#ifndef JAVELIN_HARNESS_SCENARIO_HH
#define JAVELIN_HARNESS_SCENARIO_HH

#include <stdexcept>

#include "harness/sweep.hh"

namespace javelin {
namespace harness {

/** Scenario rejection; message carries "line N:" when locatable. */
struct ScenarioError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/**
 * One declarative sweep: a base configuration and the axes swept over
 * it. Empty axis vectors mean "the base value only".
 */
struct Scenario
{
    std::string name;
    ExperimentConfig base;

    /** Benchmark names (workloads::benchmark); must be non-empty. */
    std::vector<std::string> benchmarks;
    std::vector<sim::PlatformKind> platforms;
    std::vector<jvm::VmKind> vms;
    std::vector<jvm::CollectorKind> collectors;
    std::vector<std::uint32_t> heapsMB;
    std::vector<int> dvfsPoints;
    /** Co-tenancy axes (DESIGN.md §11): tenant count, arrival shape. */
    std::vector<std::uint32_t> tenantCounts;
    std::vector<workloads::ArrivalKind> arrivals;
    std::vector<std::uint64_t> seeds;

    /** Shards the expansion yields (product of effective axis sizes). */
    std::size_t shardCount() const;
};

/** Parse and validate a scenario document. Throws ScenarioError. */
Scenario parseScenario(const std::string &text);

/** Parse a scenario file; errors are prefixed with the path. */
Scenario parseScenarioFile(const std::string &path);

/**
 * Parse a nominal heap size in MB given on a command line:
 * SweepRunner::parseCount's digits within the range a scenario's
 * heap_mb accepts, [1, 4096]. False on anything else, leaving `mb`
 * untouched.
 */
bool parseHeapArg(const char *text, std::uint32_t &mb);

/**
 * Canonical serialization: every base field written explicitly, axes
 * only when non-empty. parse(write(s)) == s, and write(parse(text))
 * is a fixed normal form of text.
 */
void writeScenario(std::ostream &os, const Scenario &s);

/** FNV-1a hex fingerprint of the canonical serialization. */
std::string scenarioHash(const Scenario &s);

/**
 * Cross product of the axes in fixed nesting order — benchmark,
 * platform, vm, collector, heap, dvfs, tenants, arrival, seed
 * (innermost) — mirroring the loop order of the original compiled
 * drivers, so ported sweeps keep their task indices and hence their
 * per-task seed streams (the co-tenancy axes are singletons in every
 * pre-existing scenario, so its indices are unchanged).
 */
std::vector<SweepTask> expandScenario(const Scenario &s);

/**
 * Stable shard identity used in checkpoints, reports and failure
 * listings: benchmark/vm/collector/heap/platform/dvfs/seed.
 */
std::string shardKey(const SweepTask &task);

/**
 * The committed sweeps of the ported drivers, by name ("fig07-edp",
 * "abl-dvfs", "ensemble-regression"). The pinned fixtures under
 * tests/fixtures/ (.scenario.json) are the canonical serializations
 * of exactly these. Throws ScenarioError for an unknown name.
 */
Scenario builtinScenario(const std::string &name);

/** Names builtinScenario() accepts. */
const std::vector<std::string> &builtinScenarioNames();

} // namespace harness
} // namespace javelin

#endif // JAVELIN_HARNESS_SCENARIO_HH
