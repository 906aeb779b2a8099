/**
 * @file
 * Golden-run regression tests.
 *
 * Pins the end-to-end architectural outcome (cycles, instructions,
 * cache misses, DRAM accesses) and the ground-truth energy of small
 * deterministic runs: each Jikes collector on the P6, Kaffe on the
 * PXA255, a call-heavy run, an interpreter-only run and a co-tenancy
 * run. Any change to the simulator that silently alters a single
 * architectural event fails here with a field-by-field diff.
 *
 * These values gate the simulator fast path (DESIGN.md §5c–§5g): the
 * MRU memos, the SoA way layout, the batched block accessors, the
 * de-virtualized level dispatch, the per-tier interpreter cost tables,
 * the trace executor and the batched cycle accounting must reproduce
 * every counter and every joule bit-for-bit. An interpreter-tier-only
 * run pins the interpreted dispatch cost path independently of the
 * JIT tiers. Every run here takes the production engines (interpreter
 * and GC fast paths on); tests/test_interp_diff.cc and
 * tests/test_gc_diff.cc hold the per-op oracles bit-identical to them.
 *
 * Updating the goldens
 * --------------------
 * Only update after convincing yourself the change is an intentional
 * model change (new cost constant, new event) — never to paper over
 * an "optimization" that drifted. Run with
 *
 *     JAVELIN_GOLDEN_PRINT=1 ./test_golden_runs
 *
 * and paste the printed initializers over the matching kGolden*
 * constants.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness/experiment.hh"
#include "jvm/jvm.hh"
#include "sim/platform.hh"
#include "workloads/program_builder.hh"
#include "workloads/suite.hh"

using namespace javelin;

namespace {

/** The pinned architectural + energy outcome of one run. */
struct Golden
{
    const char *name;
    std::uint64_t cycles;
    std::uint64_t instructions;
    std::uint64_t l1iMisses;
    std::uint64_t l1dMisses;
    std::uint64_t l2Misses;
    std::uint64_t dramAccesses;
    std::uint64_t dramWritebacks;
    double cpuJoules;
    double memJoules;
};

bool
printRequested()
{
    const char *p = std::getenv("JAVELIN_GOLDEN_PRINT");
    return p != nullptr && p[0] != '\0' && p[0] != '0';
}

void
printInitializer(const char *name, const harness::ExperimentResult &res)
{
    const auto &c = res.counters;
    std::printf("constexpr Golden kGolden%s = {\n"
                "    \"%s\",\n"
                "    %lluu, %lluu, %lluu, %lluu, %lluu, %lluu, "
                "%lluu,\n"
                "    %.17g, %.17g,\n"
                "};\n",
                name, name,
                static_cast<unsigned long long>(c.cycles),
                static_cast<unsigned long long>(c.instructions),
                static_cast<unsigned long long>(c.l1iMisses),
                static_cast<unsigned long long>(c.l1dMisses),
                static_cast<unsigned long long>(c.l2Misses),
                static_cast<unsigned long long>(c.dramAccesses),
                static_cast<unsigned long long>(c.dramWritebacks),
                res.groundTruthCpuJoules, res.groundTruthMemJoules);
}

/** Compare one run against its golden, printing a full diff table. */
void
expectGolden(const Golden &g, const harness::ExperimentResult &res)
{
    const auto &c = res.counters;
    bool ok = c.cycles == g.cycles && c.instructions == g.instructions &&
              c.l1iMisses == g.l1iMisses && c.l1dMisses == g.l1dMisses &&
              c.l2Misses == g.l2Misses &&
              c.dramAccesses == g.dramAccesses &&
              c.dramWritebacks == g.dramWritebacks &&
              res.groundTruthCpuJoules == g.cpuJoules &&
              res.groundTruthMemJoules == g.memJoules;
    if (ok)
        return;

    auto row = [](const char *field, double want, double got) {
        std::fprintf(stderr, "  %-16s golden %-22.17g actual %-22.17g %s\n",
                     field, want, got, want == got ? "" : "<-- DIFFERS");
    };
    std::fprintf(stderr, "golden-run mismatch for %s:\n", g.name);
    row("cycles", static_cast<double>(g.cycles),
        static_cast<double>(c.cycles));
    row("instructions", static_cast<double>(g.instructions),
        static_cast<double>(c.instructions));
    row("l1iMisses", static_cast<double>(g.l1iMisses),
        static_cast<double>(c.l1iMisses));
    row("l1dMisses", static_cast<double>(g.l1dMisses),
        static_cast<double>(c.l1dMisses));
    row("l2Misses", static_cast<double>(g.l2Misses),
        static_cast<double>(c.l2Misses));
    row("dramAccesses", static_cast<double>(g.dramAccesses),
        static_cast<double>(c.dramAccesses));
    row("dramWritebacks", static_cast<double>(g.dramWritebacks),
        static_cast<double>(c.dramWritebacks));
    row("cpuJoules", g.cpuJoules, res.groundTruthCpuJoules);
    row("memJoules", g.memJoules, res.groundTruthMemJoules);
    std::fprintf(stderr,
                 "If (and only if) this is an intentional model change, "
                 "rerun with JAVELIN_GOLDEN_PRINT=1 and paste the new "
                 "initializer into tests/test_golden_runs.cc.\n");
    GTEST_FAIL() << "architectural state drifted from golden run "
                 << g.name;
}

// ---------------------------------------------------------------------
// Pinned values. Re-goldened for the v2 GC charge model (DESIGN.md
// §5e): per-edge mark/scan/copy charges are folded into per-object
// batched charges (one execute + one stall per phase spec) and the copy
// path fetches a fixed 128-byte plan span instead of a span
// proportional to the bytes moved. Retired instruction counts are
// unchanged in every run — folding regroups instruction *fetch* spans
// and the cycle/stall accumulation order, never the retired-uop
// totals. Cycles, l1i misses and joules shift accordingly; both the
// fast path and the reference oracle emit this same v2 stream
// (tests/test_gc_diff.cc holds them bit-identical). See the file
// header for the update procedure.
//
// The Interp golden was re-captured once more for the bytecode-operand
// stream buffer (DESIGN.md §5g): the interpreted tier reads adjacent
// operand words from a one-line buffer instead of re-accessing the
// D-cache per bytecode word, so its L1D access count drops while
// retired instructions and every pinned miss counter stay identical
// (cycles 24300201 -> 24300204, cpuJoules 0.311029 -> 0.309926,
// memJoules +4.4e-10; all other fields unchanged). The three compiled-
// tier goldens never issue interpreted operand fetches and did not
// move.
// ---------------------------------------------------------------------

constexpr Golden kGoldenJikes = {
    "Jikes",
    7398349u, 11194228u, 1325u, 132561u, 1050u, 40793u, 760u,
    0.08538650216250028, 0.0026103471562500011,
};

constexpr Golden kGoldenGenMs = {
    "GenMs",
    10883719u, 15600554u, 400u, 340576u, 2449u, 28015u, 1287u,
    0.12134708392500031, 0.0027261511875000025,
};

constexpr Golden kGoldenKaffe = {
    "Kaffe",
    31858790u, 24782205u, 583u, 118120u, 0u, 118703u, 103687u,
    0.022306312178750089, 0.0030669148756248699,
};

constexpr Golden kGoldenCallHeavy = {
    "CallHeavy",
    7589370u, 8886492u, 20694u, 221637u, 6996u, 52298u, 4271u,
    0.07473267599149995, 0.003165754171750002,
};

constexpr Golden kGoldenInterp = {
    "Interp",
    24300204u, 43197967u, 42u, 205683u, 266u, 10821u, 0u,
    0.30992634908100003, 0.004175641929500002,
};

constexpr Golden kGoldenMultiTenant = {
    "MultiTenant",
    70641431u, 118576859u, 20648u, 1226495u, 11380u, 83454u, 5789u,
    0.87188890667192498, 0.014182179153999818,
};

constexpr Golden kGoldenGenCopy = {
    "GenCopy",
    12889860u, 16589883u, 409u, 141221u, 2478u, 58034u, 1116u,
    0.13221752849350019, 0.0040842907107499996,
};

constexpr Golden kGoldenMarkSweep = {
    "MarkSweep",
    9844369u, 11547703u, 1268u, 169134u, 5340u, 78313u, 1509u,
    0.096011579152000356, 0.004331952788999999,
};

/** Pinned schedule shape of the multi-tenant golden (see below). */
constexpr std::uint64_t kGoldenMultiTenantSwitches = 7274;

/**
 * The synthetic call-density stress (deep helper chains, recursion,
 * cold calls through the dispatch tree; frames turn over every ~5-10
 * bytecodes): pins the trace executor's inline Call/Ret machinery —
 * frame push/pop charges, the register-pool watermarks, the deep-stack
 * spill/frame-link traffic — against lockstep drift that the
 * fast-vs-oracle differentials cannot see.
 */
harness::ExperimentResult
runCallHeavy()
{
    harness::ExperimentConfig cfg;
    cfg.platform = sim::PlatformKind::P6;
    cfg.vm = jvm::VmKind::Jikes;
    cfg.collector = jvm::CollectorKind::SemiSpace;
    cfg.heapNominalMB = 32;
    cfg.dataset = workloads::DatasetScale::Small;
    return harness::runExperiment(cfg,
                                  workloads::benchmark("call_heavy"));
}

harness::ExperimentResult
runJikes()
{
    harness::ExperimentConfig cfg;
    cfg.platform = sim::PlatformKind::P6;
    cfg.vm = jvm::VmKind::Jikes;
    cfg.collector = jvm::CollectorKind::SemiSpace;
    cfg.heapNominalMB = 32;
    cfg.dataset = workloads::DatasetScale::Small;
    return harness::runExperiment(cfg,
                                  workloads::benchmark("_202_jess"));
}

harness::ExperimentResult
runGenMs()
{
    harness::ExperimentConfig cfg;
    cfg.platform = sim::PlatformKind::P6;
    cfg.vm = jvm::VmKind::Jikes;
    cfg.collector = jvm::CollectorKind::GenMS;
    cfg.heapNominalMB = 32;
    cfg.dataset = workloads::DatasetScale::Small;
    return harness::runExperiment(cfg, workloads::benchmark("_209_db"));
}

/**
 * GenCopy, the default collector, at the tightest paper heap: euler
 * fills the mature semispace, so nursery promotion (remembered-set
 * replay included) and the full mature copy both run.
 */
harness::ExperimentResult
runGenCopy()
{
    harness::ExperimentConfig cfg;
    cfg.platform = sim::PlatformKind::P6;
    cfg.vm = jvm::VmKind::Jikes;
    cfg.collector = jvm::CollectorKind::GenCopy;
    cfg.heapNominalMB = 32;
    cfg.dataset = workloads::DatasetScale::Small;
    return harness::runExperiment(cfg, workloads::benchmark("euler"));
}

/** Stop-the-world MarkSweep: free-list allocation, mark and sweep. */
harness::ExperimentResult
runMarkSweep()
{
    harness::ExperimentConfig cfg;
    cfg.platform = sim::PlatformKind::P6;
    cfg.vm = jvm::VmKind::Jikes;
    cfg.collector = jvm::CollectorKind::MarkSweep;
    cfg.heapNominalMB = 32;
    cfg.dataset = workloads::DatasetScale::Small;
    return harness::runExperiment(cfg,
                                  workloads::benchmark("_202_jess"));
}

harness::ExperimentResult
runKaffe()
{
    harness::ExperimentConfig cfg;
    cfg.platform = sim::PlatformKind::Pxa255;
    cfg.vm = jvm::VmKind::Kaffe;
    cfg.collector = jvm::CollectorKind::IncrementalMS;
    cfg.heapNominalMB = 16;
    cfg.dataset = workloads::DatasetScale::Small;
    return harness::runExperiment(cfg,
                                  workloads::benchmark("_201_compress"));
}

/**
 * Interpreter-tier-only run, driven through the Jvm directly (the
 * experiment harness has no tier knob): every bytecode is charged on
 * the interpreted tier's dispatch/cost path (handler fetches, operand
 * stream buffer — DESIGN.md §5d/§5g), so this golden pins that path
 * independently of the compiled tiers. Synthesizes an ExperimentResult
 * so the print / compare machinery above is shared.
 */
harness::ExperimentResult
runInterp()
{
    workloads::StudyScale scale =
        workloads::studyScaleFor(workloads::DatasetScale::Small);
    scale.volume = 1.0 / 16.0; // interpreted code is ~4x slower
    const jvm::Program program =
        workloads::buildProgram(workloads::benchmark("_202_jess"), scale);

    sim::System system(sim::p6Spec());
    jvm::JvmConfig cfg;
    cfg.kind = jvm::VmKind::Jikes;
    cfg.collector = jvm::CollectorKind::SemiSpace;
    cfg.heapBytes = 512 * kKiB;
    cfg.interp.compileOnInvoke = jvm::Tier::Interpreted;
    cfg.adaptiveOptimization = false;
    jvm::Jvm vm(system, program, cfg);

    harness::ExperimentResult res;
    res.run = vm.run();
    res.counters = system.counters();
    res.groundTruthCpuJoules = system.cpuJoules();
    res.groundTruthMemJoules = system.memoryJoules();
    return res;
}

/**
 * Two Jikes/GenMS tenants serving Poisson request traffic on one P6
 * (DESIGN.md §11): pins the co-tenancy scheduler — quantum
 * interleaving, scheduler-dispatch charges, shared-cache/DRAM
 * contention between tenants — on top of everything the single-VM
 * goldens already pin. Any drift in the slice boundaries reshuffles
 * the interleaving and lands here as a counter diff.
 */
harness::ExperimentResult
runMultiTenant()
{
    harness::ExperimentConfig cfg;
    cfg.platform = sim::PlatformKind::P6;
    cfg.vm = jvm::VmKind::Jikes;
    cfg.collector = jvm::CollectorKind::GenMS;
    cfg.heapNominalMB = 32;
    cfg.dataset = workloads::DatasetScale::Small;
    cfg.tenants = 2;
    cfg.requestsPerTenant = 12;
    cfg.requestRateHz = 3000.0;
    return harness::runExperiment(cfg,
                                  workloads::benchmark("_202_jess"));
}

} // namespace

TEST(GoldenRuns, JikesSemiSpaceP6)
{
    const auto res = runJikes();
    ASSERT_TRUE(res.ok());
    if (printRequested()) {
        printInitializer("Jikes", res);
        GTEST_SKIP() << "print mode: golden not checked";
    }
    expectGolden(kGoldenJikes, res);
}

/**
 * GenMS at the tightest paper heap: nursery evacuation (remembered-set
 * replay, region-predicate devirtualization) plus mature-space marking
 * and lazy free-list sweeping all run in one configuration, so this
 * golden pins the full breadth of the batched GC fast paths.
 */
TEST(GoldenRuns, GenMsP6Heap32)
{
    const auto res = runGenMs();
    ASSERT_TRUE(res.ok());
    if (printRequested()) {
        printInitializer("GenMs", res);
        GTEST_SKIP() << "print mode: golden not checked";
    }
    expectGolden(kGoldenGenMs, res);
}

/**
 * GenCopy minor and major collections in one run. The run must reach
 * a major collection, or the golden would not pin the mature copy.
 */
TEST(GoldenRuns, GenCopyP6)
{
    const auto res = runGenCopy();
    ASSERT_TRUE(res.ok());
    EXPECT_GE(res.run.gc.majorCollections, 1u);
    if (printRequested()) {
        printInitializer("GenCopy", res);
        GTEST_SKIP() << "print mode: golden not checked";
    }
    expectGolden(kGoldenGenCopy, res);
}

TEST(GoldenRuns, MarkSweepP6)
{
    const auto res = runMarkSweep();
    ASSERT_TRUE(res.ok());
    if (printRequested()) {
        printInitializer("MarkSweep", res);
        GTEST_SKIP() << "print mode: golden not checked";
    }
    expectGolden(kGoldenMarkSweep, res);
}

TEST(GoldenRuns, KaffeIncMsPxa255)
{
    const auto res = runKaffe();
    ASSERT_TRUE(res.ok());
    if (printRequested()) {
        printInitializer("Kaffe", res);
        GTEST_SKIP() << "print mode: golden not checked";
    }
    expectGolden(kGoldenKaffe, res);
}

TEST(GoldenRuns, CallHeavySemiSpaceP6)
{
    const auto res = runCallHeavy();
    ASSERT_TRUE(res.ok());
    if (printRequested()) {
        printInitializer("CallHeavy", res);
        GTEST_SKIP() << "print mode: golden not checked";
    }
    expectGolden(kGoldenCallHeavy, res);
}

TEST(GoldenRuns, InterpreterTierP6)
{
    const auto res = runInterp();
    ASSERT_TRUE(res.ok());
    if (printRequested()) {
        printInitializer("Interp", res);
        GTEST_SKIP() << "print mode: golden not checked";
    }
    expectGolden(kGoldenInterp, res);
}

TEST(GoldenRuns, MultiTenantGenMsP6)
{
    const auto res = runMultiTenant();
    ASSERT_TRUE(res.ok());
    if (printRequested()) {
        printInitializer("MultiTenant", res);
        std::printf("constexpr std::uint64_t kGoldenMultiTenantSwitches "
                    "= %llu;\n",
                    static_cast<unsigned long long>(
                        res.cotenancy.contextSwitches));
        GTEST_SKIP() << "print mode: golden not checked";
    }
    EXPECT_EQ(res.cotenancy.contextSwitches,
              kGoldenMultiTenantSwitches);
    expectGolden(kGoldenMultiTenant, res);
}

/** A golden run must be a pure function of its configuration. */
TEST(GoldenRuns, RunsAreDeterministic)
{
    const auto a = runJikes();
    const auto b = runJikes();
    EXPECT_EQ(a.counters.cycles, b.counters.cycles);
    EXPECT_EQ(a.counters.instructions, b.counters.instructions);
    EXPECT_EQ(a.counters.dramAccesses, b.counters.dramAccesses);
    EXPECT_EQ(a.groundTruthCpuJoules, b.groundTruthCpuJoules);
    EXPECT_EQ(a.groundTruthMemJoules, b.groundTruthMemJoules);
}
