/**
 * @file
 * Interpreter fast-path differential tests.
 *
 * The execute-batching fast path (DESIGN.md §5f) — folded segment
 * charges, the trace executor, the one-bytecode segment fall-through —
 * must be *bit-identical* to the per-op switch loop it replaces, under
 * every compilation tier, not merely statistically close. This suite
 * runs full JVM workloads twice, once with
 * Interpreter::Config::fastPath on (the batched trace executor, the
 * production engine) and once off (the per-op oracle, which nothing
 * but this suite selects), and asserts exact equality of:
 *
 *  - every hardware performance counter (cycles and stall cycles
 *    through their double accumulators, so the floating-point
 *    accumulation grouping is part of the contract),
 *  - the integrated CPU and memory energy, to the last bit,
 *  - the periodic-task poll schedule, observed by a probe task whose
 *    firing ticks are recorded (a fast path that hoisted a poll past
 *    the tick a task came due would shift this trace),
 *  - the final heap image byte-for-byte (the call stack is empty at
 *    exit, so the return value + bytecode count pin the stack
 *    history),
 *  - the semantic outcome and all collector statistics, and
 *  - in service mode, the number of slices the requests took.
 *
 * The matrix fuzzes across workloads, heap pressures and all four
 * tiers: pure interpretation, baseline-compiled, Kaffe-style JIT, and
 * the adaptive configuration whose quantum callbacks retier methods
 * mid-trace. It also covers the Kaffe personality on the PXA255 with
 * the incremental collector, and sliced service-mode execution that
 * yields to the scheduler every quantum (the co-tenancy path). A final
 * golden test pins one batched run's outcome to hard constants so that
 * a lockstep bug that changes both modes the same way is still caught
 * (regenerate with JAVELIN_GOLDEN_PRINT=1).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "jvm/jvm.hh"
#include "sim/platform.hh"
#include "workloads/program_builder.hh"
#include "workloads/suite.hh"

using namespace javelin;
using namespace javelin::jvm;

namespace {

/** Platform, VM and drive configuration of one rig. */
struct RigSpec
{
    sim::PlatformSpec platform = sim::p6Spec();
    VmKind vm = VmKind::Jikes;
    Tier tier = Tier::Baseline;
    bool adaptive = false;
    CollectorKind collector = CollectorKind::GenCopy;
    std::uint64_t heapBytes = 512 * kKiB;
    /** Requests served in sliced service mode (beginService,
     *  startRequest, runRequestSlice yielding every quantum); 0 runs
     *  the program once through Jvm::run(). */
    unsigned serviceRequests = 0;
};

/** One full simulated platform + JVM run in a chosen dispatch mode. */
struct InterpRig
{
    InterpRig(const Program &program, const RigSpec &spec, bool fast)
        : system(spec.platform)
    {
        // Fires at poll points only: its tick trace IS the observable
        // poll schedule (same probe discipline as test_gc_diff).
        system.addPeriodicTask("poll-probe", 20000, [this](Tick t) {
            pollTicks.push_back(t);
        });
        JvmConfig cfg;
        cfg.kind = spec.vm;
        cfg.collector = spec.collector;
        cfg.heapBytes = spec.heapBytes;
        cfg.interp.compileOnInvoke = spec.tier;
        cfg.interp.fastPath = fast;
        cfg.adaptiveOptimization = spec.adaptive;
        vm = std::make_unique<Jvm>(system, program, cfg);
        if (spec.serviceRequests == 0) {
            run = vm->run();
            return;
        }
        vm->setYieldEachQuantum(true);
        vm->beginService();
        for (unsigned r = 0; r < spec.serviceRequests; ++r) {
            vm->startRequest();
            do
                ++slices;
            while (!vm->runRequestSlice());
        }
        run = vm->endService();
    }

    sim::System system;
    std::unique_ptr<Jvm> vm;
    RunResult run;
    std::vector<Tick> pollTicks;
    std::uint64_t slices = 0;
};

#define EXPECT_COUNTER_EQ(field)                                          \
    EXPECT_EQ(ca.field, cb.field) << "counter " #field " diverged"

void
expectIdentical(InterpRig &fast, InterpRig &ref)
{
    const sim::PerfCounters &ca = fast.system.counters();
    const sim::PerfCounters &cb = ref.system.counters();
    EXPECT_COUNTER_EQ(cycles);
    EXPECT_COUNTER_EQ(instructions);
    EXPECT_COUNTER_EQ(stallCycles);
    EXPECT_COUNTER_EQ(branches);
    EXPECT_COUNTER_EQ(branchMispredicts);
    EXPECT_COUNTER_EQ(l1iAccesses);
    EXPECT_COUNTER_EQ(l1iMisses);
    EXPECT_COUNTER_EQ(l1dAccesses);
    EXPECT_COUNTER_EQ(l1dMisses);
    EXPECT_COUNTER_EQ(l2Accesses);
    EXPECT_COUNTER_EQ(l2Misses);
    EXPECT_COUNTER_EQ(l2Probes);
    EXPECT_COUNTER_EQ(dramAccesses);
    EXPECT_COUNTER_EQ(dramWritebacks);

    // Energy integrates cycles and events through doubles: exact
    // equality, not tolerance — the two dispatch modes must take
    // identical rounding paths.
    EXPECT_EQ(fast.system.cpuJoules(), ref.system.cpuJoules());
    EXPECT_EQ(fast.system.memoryJoules(), ref.system.memoryJoules());

    EXPECT_EQ(fast.pollTicks, ref.pollTicks) << "poll schedule diverged";
    EXPECT_EQ(fast.slices, ref.slices) << "yield schedule diverged";

    // Semantics: program outcome and the full allocation/GC history.
    EXPECT_EQ(fast.run.returnValue, ref.run.returnValue);
    EXPECT_EQ(fast.run.bytecodesExecuted, ref.run.bytecodesExecuted);
    EXPECT_EQ(fast.run.outOfMemory, ref.run.outOfMemory);
    EXPECT_EQ(fast.run.classesLoaded, ref.run.classesLoaded);
    EXPECT_EQ(fast.run.methodsCompiled, ref.run.methodsCompiled);
    EXPECT_EQ(fast.run.methodsOptimized, ref.run.methodsOptimized);
    EXPECT_EQ(fast.run.gc.collections, ref.run.gc.collections);
    EXPECT_EQ(fast.run.gc.bytesAllocated, ref.run.gc.bytesAllocated);
    EXPECT_EQ(fast.run.gc.objectsAllocated, ref.run.gc.objectsAllocated);
    EXPECT_EQ(fast.run.gc.bytesCopied, ref.run.gc.bytesCopied);
    EXPECT_EQ(fast.run.gc.objectsCopied, ref.run.gc.objectsCopied);
    EXPECT_EQ(fast.run.gc.pauseTicks, ref.run.gc.pauseTicks);

    // Full final heap image: payloads, headers, free-list links.
    Heap &ha = fast.vm->heap();
    Heap &hb = ref.vm->heap();
    ASSERT_EQ(ha.size(), hb.size());
    EXPECT_EQ(0, std::memcmp(ha.ptr(ha.base()), hb.ptr(hb.base()),
                             ha.size()))
        << "heap images diverged";
}

/** Run spec in both modes and hold them bit-identical. */
void
expectModesIdentical(const Program &program, const RigSpec &spec)
{
    InterpRig fast(program, spec, true);
    InterpRig ref(program, spec, false);
    expectIdentical(fast, ref);
}

Program
smallWorkload(const char *name, double volume)
{
    workloads::StudyScale scale =
        workloads::studyScaleFor(workloads::DatasetScale::Small);
    scale.volume = volume;
    return workloads::buildProgram(workloads::benchmark(name), scale);
}

struct TierCase
{
    const char *label;
    Tier tier;
    bool adaptive;
};

constexpr TierCase kTierCases[] = {
    {"interpreted", Tier::Interpreted, false},
    {"baseline", Tier::Baseline, false},
    {"jitted", Tier::Jitted, false},
    {"adaptive-optimizing", Tier::Baseline, true},
};

} // namespace

class InterpDiff : public testing::TestWithParam<const char *>
{
};

/** Batched vs per-op under all four tiers, two heap pressures. */
TEST_P(InterpDiff, FastPathBitIdenticalAcrossTiers)
{
    for (const double volume : {1.0 / 32.0, 1.0 / 16.0}) {
        const Program program = smallWorkload(GetParam(), volume);
        for (const TierCase &tc : kTierCases) {
            SCOPED_TRACE(testing::Message()
                         << tc.label << " volume 1/"
                         << static_cast<int>(1.0 / volume));
            RigSpec spec;
            spec.tier = tc.tier;
            spec.adaptive = tc.adaptive;
            expectModesIdentical(program, spec);
        }
    }
}

/** The non-moving free-list collector exercises a different allocation
 *  path (and the PR 5 virgin-pool recycling) under both modes. */
TEST_P(InterpDiff, FastPathBitIdenticalUnderMarkSweep)
{
    const Program program = smallWorkload(GetParam(), 1.0 / 16.0);
    RigSpec spec;
    spec.adaptive = true;
    spec.collector = CollectorKind::MarkSweep;
    spec.heapBytes = 768 * kKiB;
    expectModesIdentical(program, spec);
}

/** The Kaffe personality on the embedded platform: lazy system-class
 *  loading through the JIT, the incremental tri-colour collector's
 *  write barrier and increments, and the L2-less PXA255 hierarchy. */
TEST_P(InterpDiff, FastPathBitIdenticalKaffePxa255)
{
    const Program program = smallWorkload(GetParam(), 1.0 / 16.0);
    RigSpec spec;
    spec.platform = sim::pxa255Spec();
    spec.vm = VmKind::Kaffe;
    spec.tier = Tier::Jitted;
    spec.collector = CollectorKind::IncrementalMS;
    spec.heapBytes = 768 * kKiB;
    InterpRig fast(program, spec, true);
    InterpRig ref(program, spec, false);
    EXPECT_FALSE(fast.run.outOfMemory);
    EXPECT_GT(fast.run.gc.collections, 0u);
    expectIdentical(fast, ref);
}

/** Sliced service mode (the co-tenancy drive, DESIGN.md §11): every
 *  quantum yields out of the trace executor and resumes in a fresh
 *  runSlice, across several requests of one warm VM. */
TEST_P(InterpDiff, FastPathBitIdenticalInSlicedServiceMode)
{
    const Program program = smallWorkload(GetParam(), 1.0 / 32.0);
    RigSpec spec;
    spec.adaptive = true;
    spec.collector = CollectorKind::GenMS;
    spec.serviceRequests = 2;
    InterpRig fast(program, spec, true);
    InterpRig ref(program, spec, false);
    EXPECT_GT(fast.slices, 2 * spec.serviceRequests)
        << "requests never yielded";
    expectIdentical(fast, ref);
}

// call_heavy is the synthetic call-density stress (deep helper chains,
// per-iteration recursion, cold calls fanned through the dispatch
// tree): Call/Ret dominate its stream, so it leans on exactly the
// machinery the trace executor inlines — frame push/pop, the
// frame-refresh tail, the register-pool watermarks — under every tier
// and both heap pressures.
INSTANTIATE_TEST_SUITE_P(Workloads, InterpDiff,
                         testing::Values("_202_jess", "_209_db",
                                         "call_heavy"));

/**
 * Golden pin of one batched run: lockstep regressions (a model change
 * that alters both modes identically) pass the differentials above but
 * fail here. Regenerate with JAVELIN_GOLDEN_PRINT=1 ./test_interp_diff
 * after any intentional charge-model change.
 */
TEST(InterpGolden, BatchedRunPinned)
{
    const Program program = smallWorkload("_202_jess", 1.0 / 16.0);
    RigSpec spec;
    spec.adaptive = true;
    InterpRig rig(program, spec, true);
    const sim::PerfCounters &c = rig.system.counters();

    if (std::getenv("JAVELIN_GOLDEN_PRINT") != nullptr) {
        std::printf("    // InterpGolden.BatchedRunPinned\n"
                    "    kCycles = %lluull;\n"
                    "    kInstructions = %lluull;\n"
                    "    kL1dMisses = %lluull;\n"
                    "    kBytecodes = %lluull;\n"
                    "    kCpuJoules = %.17g;\n",
                    static_cast<unsigned long long>(c.cycles),
                    static_cast<unsigned long long>(c.instructions),
                    static_cast<unsigned long long>(c.l1dMisses),
                    static_cast<unsigned long long>(
                        rig.run.bytecodesExecuted),
                    rig.system.cpuJoules());
        GTEST_SKIP() << "golden print mode";
    }

    const std::uint64_t kCycles = 18243248ull;
    const std::uint64_t kInstructions = 22251355ull;
    const std::uint64_t kL1dMisses = 278281ull;
    const std::uint64_t kBytecodes = 2350345ull;
    const double kCpuJoules = 0.179905342331;

    EXPECT_EQ(c.cycles, kCycles);
    EXPECT_EQ(c.instructions, kInstructions);
    EXPECT_EQ(c.l1dMisses, kL1dMisses);
    EXPECT_EQ(rig.run.bytecodesExecuted, kBytecodes);
    EXPECT_EQ(rig.system.cpuJoules(), kCpuJoules);
}
