/**
 * @file
 * Deeper collector tests: remembered-set pruning, forwarding chains,
 * the GenMS minor-failure fallback, incremental-collector stress, and
 * Appel nursery-bound behaviour — the paths the randomized property
 * suite reaches only occasionally.
 */

#include <gtest/gtest.h>

#include "jvm/gc/gencopy.hh"
#include "jvm/gc/genms.hh"
#include "jvm/gc/incremental_ms.hh"
#include "jvm/gc/remset.hh"
#include "jvm/gc/semispace.hh"
#include "sim/platform.hh"
#include "util/random.hh"

using namespace javelin;
using namespace javelin::jvm;

namespace {

std::vector<ClassInfo>
gcClasses()
{
    std::vector<ClassInfo> classes(2);
    classes[0].id = 0;
    classes[0].name = "Node";
    classes[0].refFields = 2;
    classes[0].scalarFields = 2;
    classes[1].id = 1;
    classes[1].name = "Object[]";
    classes[1].isRefArray = true;
    return classes;
}

class Host : public GcHost
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

struct Fix
{
    explicit Fix(CollectorKind kind, std::uint64_t bytes)
        : system(sim::p6Spec()), heap(bytes), classes(gcClasses()),
          om(heap, system.cpu(), classes)
    {
        collector = makeCollector(kind, GcEnv{heap, om, system, host});
    }

    Address
    node(std::int64_t v)
    {
        const std::uint32_t bytes = om.objectBytes(classes[0], 0);
        const Address a = collector->allocate(bytes);
        if (a == kNull)
            return kNull;
        om.initObject(a, classes[0], bytes, 0);
        collector->postInit(a);
        om.storeScalar(a, 0, v);
        return a;
    }

    void
    store(Address holder, std::uint32_t slot, Address value)
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
    Host host;
    std::unique_ptr<Collector> collector;
};

} // namespace

TEST(RememberedSet, RecordForEachClearPrune)
{
    sim::System system(sim::p6Spec());
    RememberedSet rs(system);
    EXPECT_TRUE(rs.empty());
    rs.record(0x1000);
    rs.record(0x2000);
    rs.record(0x1000); // duplicates allowed
    EXPECT_EQ(rs.size(), 3u);

    std::vector<Address> seen;
    rs.forEach([&](Address a) { seen.push_back(a); });
    EXPECT_EQ(seen.size(), 3u);

    rs.pruneIf([](Address a) { return a == 0x1000; });
    EXPECT_EQ(rs.size(), 1u);
    rs.clear();
    EXPECT_TRUE(rs.empty());
}

TEST(RememberedSet, RecordChargesSsbStore)
{
    sim::System system(sim::p6Spec());
    RememberedSet rs(system);
    const auto before = system.counters().l1dAccesses;
    rs.record(0x1234);
    EXPECT_EQ(system.counters().l1dAccesses, before + 1);
}

TEST(GenCopy, NurseryLimitShrinksWithMatureOccupancy)
{
    Fix f(CollectorKind::GenCopy, 512 * kKiB);
    auto *gc = static_cast<GenCopyCollector *>(f.collector.get());
    const auto limit0 = gc->nurseryLimit();

    // Grow the mature live set by promoting rooted batches until it
    // presses on the Appel bound (mature free < nursery region).
    for (int batch = 0; batch < 12; ++batch) {
        for (int i = 0; i < 300; ++i)
            f.host.roots.push_back(f.node(i));
        f.collector->collect(false);
    }
    EXPECT_LT(gc->nurseryLimit(), limit0);
    EXPECT_GT(gc->nurseryLimit(), 0u);
}

TEST(GenCopy, DeepListSurvivesMinorAndMajor)
{
    Fix f(CollectorKind::GenCopy, 1 * kMiB);
    // Build a long young chain rooted once: stress the evacuation
    // queue's breadth-first traversal.
    Address head = kNull;
    for (int i = 0; i < 2000; ++i) {
        const Address n = f.node(i);
        ASSERT_NE(n, kNull);
        if (head != kNull)
            f.store(n, 0, head);
        head = n;
        if (f.host.roots.empty())
            f.host.roots.push_back(head);
        else
            f.host.roots[0] = head;
    }
    f.collector->collect(false);
    f.collector->collect(true);

    // Walk the chain: all 2000 payloads intact, in order.
    Address p = f.host.roots[0];
    for (int i = 1999; i >= 0; --i) {
        ASSERT_NE(p, kNull) << "chain broken at " << i;
        EXPECT_EQ(f.om.scalarRaw(p, 0), i);
        p = f.om.refRaw(p, 0);
    }
    EXPECT_EQ(p, kNull);
}

TEST(GenCopy, RemsetDuplicatesAreHarmless)
{
    Fix f(CollectorKind::GenCopy, 512 * kKiB);
    // Promote a holder.
    const Address h0 = f.node(1);
    f.host.roots.push_back(h0);
    f.collector->collect(false);
    const Address old = f.host.roots[0];

    // Store the same young value into the same old slot repeatedly:
    // every store records a (duplicate) remset entry.
    const Address young = f.node(7);
    for (int i = 0; i < 50; ++i)
        f.store(old, 0, young);
    auto *gc = static_cast<GenCopyCollector *>(f.collector.get());
    EXPECT_GE(gc->remset().size(), 50u);

    f.collector->collect(false);
    const Address promoted = f.om.refRaw(f.host.roots[0], 0);
    EXPECT_EQ(f.om.scalarRaw(promoted, 0), 7);
    EXPECT_TRUE(gc->remset().empty());
}

TEST(GenMS, MinorFallbackSurvivesMatureExhaustion)
{
    // Small heap, everything kept live until the mature space chokes;
    // exercises evacuateNursery -> markSweepMature -> retry.
    Fix f(CollectorKind::GenMS, 256 * kKiB);
    Rng rng(3);
    f.host.roots.assign(48, kNull);
    bool sawOom = false;
    int made = 0;
    for (int i = 0; i < 20000; ++i) {
        const Address n = f.node(i);
        if (n == kNull) {
            sawOom = true;
            break;
        }
        ++made;
        // Retain roughly half of everything forever via root churn.
        if (rng.bernoulli(0.9))
            f.host.roots[rng.uniformInt(48)] = n;
    }
    // Either we eventually OOM (acceptable: live set really grows) or
    // everything kept working; in both cases the retained graph is
    // intact.
    (void)sawOom;
    EXPECT_GT(made, 1000);
    for (const Address r : f.host.roots)
        if (r != kNull) {
            EXPECT_LT(f.om.scalarRaw(r, 0), made);
            EXPECT_GE(f.om.scalarRaw(r, 0), 0);
        }
}

TEST(GenMS, PretenuredLargeObjectsGoToMature)
{
    Fix f(CollectorKind::GenMS, 1 * kMiB);
    auto *gc = static_cast<GenMSCollector *>(f.collector.get());
    const std::uint32_t big = 6000; // >= kPretenureBytes
    const Address a = f.collector->allocate(big);
    ASSERT_NE(a, kNull);
    EXPECT_FALSE(gc->nursery().contains(a));
    EXPECT_TRUE(gc->mature().isAllocatedCell(a));
}

TEST(SemiSpace, RepeatedCollectionsIdempotentOnStableGraph)
{
    Fix f(CollectorKind::SemiSpace, 512 * kKiB);
    Address head = kNull;
    for (int i = 0; i < 100; ++i) {
        const Address n = f.node(i);
        f.store(n, 0, head);
        head = n;
    }
    f.host.roots.push_back(head);

    for (int gc = 0; gc < 6; ++gc) {
        f.collector->collect(true);
        Address p = f.host.roots[0];
        int count = 0;
        while (p != kNull) {
            ++count;
            p = f.om.refRaw(p, 0);
        }
        EXPECT_EQ(count, 100);
        // Live bytes stay flat: no duplication, no leak.
        EXPECT_EQ(f.collector->heapUsed(),
                  100u * f.om.objectBytes(f.classes[0], 0));
    }
}

TEST(IncMS, BarrierStormDuringMarkingKeepsGraph)
{
    Fix f(CollectorKind::IncrementalMS, 512 * kKiB);
    auto *gc = static_cast<IncrementalMSCollector *>(f.collector.get());
    Rng rng(17);
    f.host.roots.assign(32, kNull);

    // Continuous mutation while cycles run in the background.
    for (int i = 0; i < 30000; ++i) {
        const Address n = f.node(i);
        ASSERT_NE(n, kNull);
        const Address victim = f.host.roots[rng.uniformInt(32)];
        if (victim != kNull)
            f.store(victim, 1, n); // barrier target during marking
        f.host.roots[rng.uniformInt(32)] = n;
    }
    EXPECT_GT(gc->stats().majorCollections, 0u);
    EXPECT_GT(gc->stats().barrierHits, 0u);
    // Everything reachable is intact.
    for (const Address r : f.host.roots) {
        if (r != kNull) {
            EXPECT_GE(f.om.scalarRaw(r, 0), 0);
        }
    }
}

TEST(IncMS, ExplicitFullCycleReclaimsEverything)
{
    Fix f(CollectorKind::IncrementalMS, 256 * kKiB);
    for (int i = 0; i < 500; ++i)
        f.node(i);
    f.collector->collect(true); // start + finish atomically
    EXPECT_EQ(f.collector->heapUsed(), 0u);
}

TEST(Evacuator, ForwardingChainAcrossRegions)
{
    // Abandoned-minor scenario distilled: an object forwarded twice
    // must still resolve through processSlot's snap loop. We simulate
    // by running GenCopy minor then major and checking root identity.
    Fix f(CollectorKind::GenCopy, 512 * kKiB);
    const Address a = f.node(99);
    f.host.roots.push_back(a);
    f.collector->collect(false); // a -> mature copy A1
    const Address a1 = f.host.roots[0];
    f.collector->collect(true);  // A1 -> other half A2
    const Address a2 = f.host.roots[0];
    EXPECT_NE(a1, a2);
    EXPECT_EQ(f.om.scalarRaw(a2, 0), 99);
}

TEST(Collector, StatsAreConsistent)
{
    Fix f(CollectorKind::GenCopy, 512 * kKiB);
    Rng rng(5);
    f.host.roots.assign(16, kNull);
    for (int i = 0; i < 5000; ++i) {
        const Address n = f.node(i);
        ASSERT_NE(n, kNull);
        f.host.roots[rng.uniformInt(16)] = n;
    }
    const auto &s = f.collector->stats();
    EXPECT_EQ(s.collections, s.minorCollections + s.majorCollections);
    EXPECT_EQ(s.objectsAllocated, 5000u);
    EXPECT_GT(s.bytesAllocated, 5000u * 16);
    EXPECT_GT(s.pauseTicks, 0u);
    EXPECT_GE(s.bytesCopied / std::max<std::uint64_t>(1, s.objectsCopied),
              16u); // copied objects have at least a header
}

TEST(GenMS, ResumedEvacuationLeavesNoDanglingYoungPointers)
{
    // Regression: a minor collection that runs the mature space out of
    // cells mid-evacuation must RESUME the same pass after the
    // emergency mark-sweep. Abandoning it left promoted objects with
    // unscanned reference slots pointing into the recycled nursery
    // (observed as wild addresses on antlr/GenMS/32MB).
    Fix f(CollectorKind::GenMS, 256 * kKiB);
    Rng rng(23);
    // Live set around 55% of the heap with heavy churn: fallbacks fire
    // repeatedly while the program keeps running.
    constexpr int kRoots = 96;
    f.host.roots.assign(kRoots, kNull);
    for (int i = 0; i < 60000; ++i) {
        const Address n = f.node(i);
        ASSERT_NE(n, kNull) << "OOM at " << i;
        const Address peer = f.host.roots[rng.uniformInt(kRoots)];
        if (peer != kNull)
            f.store(n, 0, peer);
        if (rng.bernoulli(0.55))
            f.host.roots[rng.uniformInt(kRoots)] = n;
        if (i % 4096 == 4095) {
            // Full reachability sweep: every pointer must be valid.
            for (const Address r : f.host.roots) {
                Address p = r;
                int depth = 0;
                while (p != kNull && depth++ < 100000) {
                    ASSERT_TRUE(f.heap.contains(p))
                        << "dangling pointer " << p << " at step " << i;
                    p = f.om.refRaw(p, 0);
                }
            }
        }
    }
}
