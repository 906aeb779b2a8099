/**
 * @file
 * Differential fuzzer for the GC fast paths (DESIGN.md §5e).
 *
 * Every collector has two drive modes behind GcEnv::fastPath: the
 * batched fast path (block slot loads, folded per-object cost charges,
 * deficit-hoisted polls, raw header decode) and the naive scalar
 * reference path over the timed ObjectModel accessors, kept as the
 * oracle. The contract is that the two are *bit-identical* in every
 * architecturally visible dimension: hardware event counts, cycle and
 * stall images, CPU and memory joules, the full heap image (object
 * payloads, mark/forward bits, free-list links) and the periodic-task
 * firing schedule.
 *
 * This test drives two rigs — one per mode — through the same
 * randomized allocate/mutate/collect program (>= 1M operations across
 * the five collectors) and asserts exact equality after every
 * collector-triggering phase. A poll the fast path hoists away would
 * show up here as a shifted firing tick of the recording task; a
 * mis-folded charge as a diverging instruction or joule count; a
 * mis-batched copy or sweep as a heap mismatch.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "jvm/gc/collector.hh"
#include "sim/platform.hh"
#include "util/random.hh"

using namespace javelin;
using namespace javelin::jvm;

namespace {

std::vector<ClassInfo>
diffClasses()
{
    std::vector<ClassInfo> classes(3);
    classes[0].id = 0;
    classes[0].name = "Node";
    classes[0].refFields = 2;
    classes[0].scalarFields = 2;
    classes[1].id = 1;
    classes[1].name = "Object[]";
    classes[1].isRefArray = true;
    classes[2].id = 2;
    classes[2].name = "long[]";
    classes[2].isScalarArray = true;
    return classes;
}

class DiffHost : public GcHost
{
  public:
    void
    forEachRoot(const std::function<void(Address &)> &fn) override
    {
        for (Address &r : roots)
            fn(r);
    }
    void gcBegin(bool) override {}
    void gcEnd(bool) override {}

    std::vector<Address> roots;
};

/** One independently simulated platform + heap + collector. */
struct Rig
{
    Rig(CollectorKind kind, bool fast, std::uint64_t heap_bytes)
        : system(sim::p6Spec()), heap(heap_bytes),
          classes(diffClasses()), om(heap, system.cpu(), classes)
    {
        GcEnv env{heap, om, system, host};
        env.fastPath = fast;
        collector = makeCollector(kind, env);
        // Fires at poll points only: its tick trace IS the observable
        // poll schedule. A fast path that skipped a poll the reference
        // path took while this task was due would shift the trace.
        system.addPeriodicTask(20000, [this](Tick t) {
            pollTicks.push_back(t);
        });
    }

    /** Allocate + init one object of class ci; returns kNull on OOM. */
    Address
    alloc(std::uint32_t ci, std::uint32_t array_len)
    {
        const ClassInfo &cls = classes[ci];
        const std::uint32_t bytes = om.objectBytes(cls, array_len);
        const Address a = collector->allocate(bytes);
        if (a == kNull)
            return kNull;
        om.initObject(a, cls, bytes, array_len);
        collector->postInit(a);
        return a;
    }

    void
    storeRef(Address holder, std::uint32_t slot, Address value)
    {
        if (collector->needsWriteBarrier())
            collector->writeBarrier(holder, om.refSlotAddr(holder, slot),
                                    value);
        om.storeRef(holder, slot, value);
    }

    sim::System system;
    Heap heap;
    std::vector<ClassInfo> classes;
    ObjectModel om;
    DiffHost host;
    std::unique_ptr<Collector> collector;
    std::vector<Tick> pollTicks;
};

#define EXPECT_COUNTER_EQ(field)                                          \
    EXPECT_EQ(ca.field, cb.field) << "counter " #field " diverged"

void
expectIdentical(Rig &fast, Rig &ref)
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
    // equality, not tolerance — the two modes must take identical
    // rounding paths.
    EXPECT_EQ(fast.system.cpuJoules(), ref.system.cpuJoules());
    EXPECT_EQ(fast.system.memoryJoules(), ref.system.memoryJoules());

    // Full heap image: payloads, headers (mark/forward bits), links.
    ASSERT_EQ(fast.heap.size(), ref.heap.size());
    EXPECT_EQ(0, std::memcmp(fast.heap.ptr(fast.heap.base()),
                             ref.heap.ptr(ref.heap.base()),
                             fast.heap.size()))
        << "heap images diverged";

    const Collector::Stats &sa = fast.collector->stats();
    const Collector::Stats &sb = ref.collector->stats();
    EXPECT_EQ(sa.collections, sb.collections);
    EXPECT_EQ(sa.minorCollections, sb.minorCollections);
    EXPECT_EQ(sa.majorCollections, sb.majorCollections);
    EXPECT_EQ(sa.pauseTicks, sb.pauseTicks);
    EXPECT_EQ(sa.bytesAllocated, sb.bytesAllocated);
    EXPECT_EQ(sa.objectsAllocated, sb.objectsAllocated);
    EXPECT_EQ(sa.bytesCopied, sb.bytesCopied);
    EXPECT_EQ(sa.objectsCopied, sb.objectsCopied);
    EXPECT_EQ(sa.objectsMarked, sb.objectsMarked);
    EXPECT_EQ(sa.bytesFreed, sb.bytesFreed);
    EXPECT_EQ(sa.barrierHits, sb.barrierHits);
    EXPECT_EQ(sa.remsetEntries, sb.remsetEntries);

    EXPECT_EQ(fast.pollTicks, ref.pollTicks) << "poll schedule diverged";
}

/** Drive both rigs through one op; returns false once OOM is seen. */
bool
step(Rig &fast, Rig &ref, Rng &rng)
{
    const std::uint32_t roll = rng.uniformInt(100);
    std::vector<Address> &roots = fast.host.roots;

    if (roll < 55 || roots.empty()) {
        // Allocate: mostly 2-ref nodes, some ref arrays (wide scan
        // objects), some scalar arrays (copy-size variety, zero refs).
        std::uint32_t ci = 0, len = 0;
        const std::uint32_t shape = rng.uniformInt(10);
        if (shape >= 8) {
            ci = 1;
            len = rng.uniformInt(9);
        } else if (shape == 7) {
            ci = 2;
            len = rng.uniformInt(17);
        }
        const Address a = fast.alloc(ci, len);
        const Address b = ref.alloc(ci, len);
        EXPECT_EQ(a, b) << "allocation addresses diverged";
        if (a == kNull)
            return false;
        if (roots.size() < 48 && rng.uniformInt(3) != 0) {
            fast.host.roots.push_back(a);
            ref.host.roots.push_back(b);
        } else if (!roots.empty()) {
            const std::uint32_t slot = rng.uniformInt(
                static_cast<std::uint32_t>(roots.size()));
            fast.host.roots[slot] = a;
            ref.host.roots[slot] = b;
        }
    } else if (roll < 90) {
        // Mutate: store a random root (or null) into a random ref slot
        // of a random root, through the write barrier.
        const std::uint32_t hi = rng.uniformInt(
            static_cast<std::uint32_t>(roots.size()));
        const Address ha = fast.host.roots[hi];
        const Address hb = ref.host.roots[hi];
        const std::uint32_t refs = fast.om.refCountRaw(ha);
        if (refs != 0) {
            const std::uint32_t slot = rng.uniformInt(refs);
            Address va = kNull, vb = kNull;
            if (rng.uniformInt(8) != 0) {
                const std::uint32_t vi = rng.uniformInt(
                    static_cast<std::uint32_t>(roots.size()));
                va = fast.host.roots[vi];
                vb = ref.host.roots[vi];
            }
            fast.storeRef(ha, slot, va);
            ref.storeRef(hb, slot, vb);
        }
    } else if (roll < 97) {
        // Drop a root: garbage for the next collection to reclaim.
        const std::uint32_t slot = rng.uniformInt(
            static_cast<std::uint32_t>(roots.size()));
        fast.host.roots.erase(fast.host.roots.begin() + slot);
        ref.host.roots.erase(ref.host.roots.begin() + slot);
    } else {
        const bool major = rng.uniformInt(2) == 0;
        fast.collector->collect(major);
        ref.collector->collect(major);
    }
    return true;
}

constexpr std::uint32_t kOpsPerCollector = 210000;

void
runDiff(CollectorKind kind, std::uint64_t heap_bytes, std::uint64_t seed)
{
    SCOPED_TRACE(collectorName(kind));
    Rig fast(kind, true, heap_bytes);
    Rig ref(kind, false, heap_bytes);
    Rng rng(seed);

    std::uint32_t ops = 0;
    for (; ops < kOpsPerCollector; ++ops) {
        if (!step(fast, ref, rng))
            break;
        // Periodic mid-run checks catch divergence near its cause
        // without paying a full-heap compare every op.
        if (ops % 50000 == 49999)
            expectIdentical(fast, ref);
        if (::testing::Test::HasFailure())
            return;
    }
    // The op mix keeps the live set far below the heap: OOM before the
    // op budget means the two rigs diverged into leaking, not a small
    // heap.
    EXPECT_EQ(ops, kOpsPerCollector) << "premature out-of-memory";

    // Final full collection exercises each collector's complete
    // mark/evacuate/sweep pipeline once more, then the closing check.
    fast.collector->collect(true);
    ref.collector->collect(true);
    expectIdentical(fast, ref);
}

} // namespace

// 5 collectors x 210k ops = 1.05M differential operations per run.

TEST(GcDiff, SemiSpace)
{
    runDiff(CollectorKind::SemiSpace, 768 * kKiB, 0xA001);
}

// The mark-sweep heaps ran at 4 MiB while FreeListAllocator bound every
// block permanently to its first size class (historical per-class peaks
// ratcheted usage until a class exhausted the space). With free cells
// persisting across sweeps and fully-free blocks retiring to the virgin
// pool, the same 210k-op runs fit comfortably at copying-collector-scale
// heaps again.
TEST(GcDiff, MarkSweep)
{
    runDiff(CollectorKind::MarkSweep, 1536 * kKiB, 0xA002);
}

TEST(GcDiff, GenCopy)
{
    runDiff(CollectorKind::GenCopy, 1024 * kKiB, 0xA003);
}

TEST(GcDiff, GenMS)
{
    runDiff(CollectorKind::GenMS, 2 * kMiB, 0xA004);
}

TEST(GcDiff, IncrementalMS)
{
    runDiff(CollectorKind::IncrementalMS, 1536 * kKiB, 0xA005);
}
