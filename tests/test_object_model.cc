/**
 * @file
 * Tests for the heap backing store, spaces, object layout, and the
 * segregated free-list allocator.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <new>
#include <type_traits>

#include "jvm/freelist.hh"
#include "jvm/heap.hh"
#include "jvm/object_model.hh"
#include "sim/platform.hh"
#include "sim/system.hh"
#include "util/random.hh"

using namespace javelin;
using namespace javelin::jvm;

static_assert(!std::is_copy_constructible_v<Heap>);

namespace {

/** Resident set size in bytes (/proc/self/statm field 2 times the page
 *  size), or -1 when statm cannot be read. */
std::int64_t
residentBytes()
{
    std::ifstream statm("/proc/self/statm");
    std::int64_t pages = 0;
    std::int64_t resident = 0;
    if (!(statm >> pages >> resident))
        return -1;
    return resident * sysconf(_SC_PAGESIZE);
}

std::vector<ClassInfo>
testClasses()
{
    std::vector<ClassInfo> classes(3);
    classes[0].id = 0;
    classes[0].name = "Node";
    classes[0].refFields = 2;
    classes[0].scalarFields = 3;
    classes[1].id = 1;
    classes[1].name = "Object[]";
    classes[1].isRefArray = true;
    classes[2].id = 2;
    classes[2].name = "long[]";
    classes[2].isScalarArray = true;
    return classes;
}

struct OmFixture
{
    OmFixture()
        : system(sim::p6Spec()), heap(1 * kMiB), classes(testClasses()),
          om(heap, system.cpu(), classes)
    {
    }

    sim::System system;
    Heap heap;
    std::vector<ClassInfo> classes;
    ObjectModel om;
};

} // namespace

TEST(Heap, BoundsChecked)
{
    Heap heap(256 * kKiB);
    EXPECT_TRUE(heap.contains(kHeapBase));
    EXPECT_TRUE(heap.contains(kHeapBase + 256 * kKiB - 1));
    EXPECT_FALSE(heap.contains(kHeapBase + 256 * kKiB));
    EXPECT_FALSE(heap.contains(0));
    EXPECT_DEATH(heap.read64(kHeapBase + 256 * kKiB), "out of range");
}

TEST(Heap, ReadWriteRoundTrip)
{
    Heap heap(64 * kKiB);
    heap.write64(kHeapBase + 8, 0xdeadbeefcafef00dULL);
    EXPECT_EQ(heap.read64(kHeapBase + 8), 0xdeadbeefcafef00dULL);
    heap.write32(kHeapBase + 16, 0x1234);
    EXPECT_EQ(heap.read32(kHeapBase + 16), 0x1234u);
}

TEST(Heap, CopyAndZero)
{
    Heap heap(64 * kKiB);
    heap.write64(kHeapBase, 99);
    heap.copyBlock(kHeapBase + 128, kHeapBase, 64);
    EXPECT_EQ(heap.read64(kHeapBase + 128), 99u);
    heap.zero(kHeapBase + 128, 64);
    EXPECT_EQ(heap.read64(kHeapBase + 128), 0u);
}

TEST(Heap, FreshHeapReadsZero)
{
    const std::uint64_t bytes = 64 * kMiB;
    Heap heap(bytes);
    EXPECT_EQ(heap.size(), bytes);
    EXPECT_EQ(heap.read64(kHeapBase), 0u);
    EXPECT_EQ(heap.read64(kHeapBase + bytes / 2), 0u);
    EXPECT_EQ(heap.read64(kHeapBase + bytes - 8), 0u);
}

TEST(Heap, OnlyTouchedPagesAreResident)
{
#ifdef __SANITIZE_ADDRESS__
    GTEST_SKIP() << "ASan shadow pages add to the resident set";
#endif
    const std::int64_t before = residentBytes();
    if (before < 0)
        GTEST_SKIP() << "/proc/self/statm is unreadable";
    const std::int64_t mib = kMiB;
    {
        Heap heap(256 * kMiB);
        EXPECT_LT(residentBytes() - before, 4 * mib);
        const std::uint64_t page = sysconf(_SC_PAGESIZE);
        for (std::uint64_t off = 0; off < 8 * kMiB; off += page)
            *heap.ptr(kHeapBase + off) = 1;
        EXPECT_GE(residentBytes() - before, 7 * mib);
    }
    EXPECT_LT(std::abs(residentBytes() - before), 1 * mib);
}

TEST(Heap, FailedMappingThrowsBadAlloc)
{
    // Larger than any user address space: the mapping must fail, and
    // the failure reach the caller (JobEngine journals the shard).
    EXPECT_THROW(Heap(std::uint64_t(1) << 62), std::bad_alloc);
}

TEST(Space, BumpAllocation)
{
    Space s("test", kHeapBase, 1024);
    EXPECT_EQ(s.bump(100), kHeapBase);
    EXPECT_EQ(s.bump(100), kHeapBase + 100);
    EXPECT_EQ(s.used(), 200u);
    EXPECT_EQ(s.freeBytes(), 824u);
    EXPECT_EQ(s.bump(900), kNull); // would overflow
    s.reset();
    EXPECT_EQ(s.used(), 0u);
}

TEST(ObjectModel, InstanceLayout)
{
    OmFixture f;
    const ClassInfo &node = f.classes[0];
    const std::uint32_t bytes = f.om.objectBytes(node, 0);
    EXPECT_EQ(bytes, alignUp(kHeaderBytes + 5 * kSlotBytes));

    const Address obj = kHeapBase + 64;
    f.om.initObject(obj, node, bytes, 0);
    EXPECT_EQ(f.om.classIdRaw(obj), 0u);
    EXPECT_EQ(f.om.sizeRaw(obj), bytes);
    EXPECT_EQ(f.om.refCountRaw(obj), 2u);
    EXPECT_EQ(f.om.scalarCountRaw(obj), 3u);
    EXPECT_EQ(f.om.refRaw(obj, 0), kNull);
    EXPECT_EQ(f.om.scalarRaw(obj, 2), 0);
}

TEST(ObjectModel, FieldAccessRoundTrip)
{
    OmFixture f;
    const Address obj = kHeapBase;
    f.om.initObject(obj, f.classes[0], f.om.objectBytes(f.classes[0], 0),
                    0);
    f.om.storeRef(obj, 1, kHeapBase + 0x100);
    f.om.storeScalar(obj, 0, -77);
    EXPECT_EQ(f.om.loadRef(obj, 1), kHeapBase + 0x100);
    EXPECT_EQ(f.om.loadScalar(obj, 0), -77);
    // Scalars live after refs: no overlap.
    EXPECT_EQ(f.om.refRaw(obj, 0), kNull);
}

TEST(ObjectModel, ArrayLayout)
{
    OmFixture f;
    const Address arr = kHeapBase;
    const std::uint32_t bytes = f.om.objectBytes(f.classes[1], 10);
    f.om.initObject(arr, f.classes[1], bytes, 10);
    EXPECT_EQ(f.om.arrayLenRaw(arr), 10u);
    EXPECT_EQ(f.om.refCountRaw(arr), 10u);
    EXPECT_EQ(f.om.scalarCountRaw(arr), 0u);

    const Address sarr = kHeapBase + 0x1000;
    f.om.initObject(sarr, f.classes[2], f.om.objectBytes(f.classes[2], 7),
                    7);
    EXPECT_EQ(f.om.refCountRaw(sarr), 0u);
    EXPECT_EQ(f.om.scalarCountRaw(sarr), 7u);
}

TEST(ObjectModel, GcBitsAndForwarding)
{
    OmFixture f;
    const Address obj = kHeapBase;
    f.om.initObject(obj, f.classes[0], f.om.objectBytes(f.classes[0], 0),
                    0);
    EXPECT_EQ(f.om.gcBitsRaw(obj), 0u);
    f.om.storeGcBits(obj, kMarkBit);
    EXPECT_TRUE(f.om.loadGcBits(obj) & kMarkBit);
    EXPECT_FALSE(f.om.isForwardedRaw(obj));

    f.om.setForwarding(obj, kHeapBase + 0x2000);
    EXPECT_TRUE(f.om.isForwardedRaw(obj));
    EXPECT_EQ(f.om.forwardingRaw(obj), kHeapBase + 0x2000);
    EXPECT_EQ(f.om.loadForwarding(obj), kHeapBase + 0x2000);
}

TEST(ObjectModel, ChargesCacheTraffic)
{
    OmFixture f;
    const Address obj = kHeapBase;
    f.om.initObject(obj, f.classes[0], f.om.objectBytes(f.classes[0], 0),
                    0);
    const auto before = f.system.counters().l1dAccesses;
    f.om.loadScalar(obj, 0);
    f.om.storeRef(obj, 0, kNull);
    EXPECT_EQ(f.system.counters().l1dAccesses, before + 2);
}

TEST(ObjectModel, CorruptHeaderPanics)
{
    OmFixture f;
    f.heap.write32(kHeapBase + kClassIdOffset, 999);
    EXPECT_DEATH(f.om.classOfRaw(kHeapBase), "corrupt object header");
}

// ---- FreeListAllocator ----

TEST(FreeList, SizeClassSelection)
{
    EXPECT_EQ(FreeListAllocator::kSizeClasses
                  [FreeListAllocator::classFor(16)], 16u);
    EXPECT_EQ(FreeListAllocator::kSizeClasses
                  [FreeListAllocator::classFor(17)], 24u);
    EXPECT_EQ(FreeListAllocator::kSizeClasses
                  [FreeListAllocator::classFor(16384)], 16384u);
    EXPECT_DEATH(FreeListAllocator::classFor(16385), "too large");
}

TEST(FreeList, AllocateAndReuse)
{
    Heap heap(256 * kKiB);
    FreeListAllocator fl(heap, Space("ms", kHeapBase, 256 * kKiB));
    std::uint32_t traffic = 0;
    const Address a = fl.alloc(48, &traffic);
    ASSERT_NE(a, kNull);
    EXPECT_TRUE(fl.isAllocatedCell(a));
    EXPECT_EQ(fl.usedBytes(), 48u);

    fl.freeCell(a);
    EXPECT_FALSE(fl.isAllocatedCell(a));
    EXPECT_EQ(fl.usedBytes(), 0u);

    const Address b = fl.alloc(40, &traffic); // same class (48)
    EXPECT_EQ(b, a); // free list reuses the cell
    EXPECT_EQ(traffic, 1u); // one load to pop the list
}

TEST(FreeList, DistinctCellsNeverOverlap)
{
    Heap heap(1 * kMiB);
    FreeListAllocator fl(heap, Space("ms", kHeapBase, 1 * kMiB));
    Rng rng(3);
    std::vector<std::pair<Address, std::uint32_t>> cells;
    std::uint32_t traffic;
    for (int i = 0; i < 500; ++i) {
        const auto bytes = static_cast<std::uint32_t>(
            16 + rng.uniformInt(120) * 8);
        const Address a = fl.alloc(bytes, &traffic);
        ASSERT_NE(a, kNull);
        cells.emplace_back(a, fl.cellBytesAt(a));
    }
    std::sort(cells.begin(), cells.end());
    for (std::size_t i = 1; i < cells.size(); ++i)
        EXPECT_LE(cells[i - 1].first + cells[i - 1].second,
                  cells[i].first);
}

TEST(FreeList, ExhaustionReturnsNull)
{
    Heap heap(64 * kKiB);
    FreeListAllocator fl(heap, Space("ms", kHeapBase, 64 * kKiB));
    std::uint32_t traffic;
    int got = 0;
    while (fl.alloc(8000, &traffic) != kNull)
        ++got;
    EXPECT_EQ(got, 8); // 4 blocks of 16 KiB, 2 cells of 8 KiB each
    EXPECT_EQ(fl.freeBytes(), 0u);
}

TEST(FreeList, SweepRebuild)
{
    Heap heap(128 * kKiB);
    FreeListAllocator fl(heap, Space("ms", kHeapBase, 128 * kKiB));
    std::uint32_t traffic;
    std::vector<Address> cells;
    for (int i = 0; i < 100; ++i)
        cells.push_back(fl.alloc(64, &traffic));
    fl.beginSweep();
    for (std::size_t i = 0; i < cells.size(); i += 2)
        fl.freeCell(cells[i]);
    // Half the cells are free again and get reused before new carving.
    const auto usedBefore = fl.usedBytes();
    const Address reused = fl.alloc(64, &traffic);
    EXPECT_TRUE(std::find(cells.begin(), cells.end(), reused) !=
                cells.end());
    EXPECT_EQ(fl.usedBytes(), usedBefore + 64);
}

TEST(FreeList, FreeCellsSurviveSweeps)
{
    Heap heap(64 * kKiB);
    FreeListAllocator fl(heap, Space("ms", kHeapBase, 64 * kKiB));
    std::uint32_t traffic;
    const Address a = fl.alloc(64, &traffic);
    const Address b = fl.alloc(64, &traffic);
    ASSERT_NE(b, kNull);
    fl.freeCell(a);
    // A sweep cycle in which the cell is neither reused nor its block
    // emptied must keep it allocatable (the old design rebuilt the
    // lists from the current sweep's corpses only, leaking it).
    fl.beginSweep();
    fl.endSweep();
    EXPECT_EQ(fl.alloc(64, &traffic), a);
    EXPECT_EQ(traffic, 1u);
}

TEST(FreeList, VirginPoolReassignsFreedBlocks)
{
    Heap heap(64 * kKiB);
    FreeListAllocator fl(heap, Space("ms", kHeapBase, 64 * kKiB));
    std::uint32_t traffic;
    std::vector<Address> cells;
    Address a;
    while ((a = fl.alloc(64, &traffic)) != kNull)
        cells.push_back(a);
    // Every block is bound to the 64-byte class: a larger class finds
    // no space even though nothing else is using the heap.
    EXPECT_EQ(fl.alloc(1024, &traffic), kNull);
    fl.beginSweep();
    for (Address c : cells)
        fl.freeCell(c);
    fl.endSweep();
    // All blocks retired to the virgin pool; the whole space is free
    // again and reassignable to any class.
    EXPECT_EQ(fl.virginBlockCount(), 4u);
    EXPECT_EQ(fl.freeBytes(), 64 * kKiB);
    EXPECT_NE(fl.alloc(1024, &traffic), kNull);
}

TEST(FreeList, DoubleFreePanics)
{
    Heap heap(64 * kKiB);
    FreeListAllocator fl(heap, Space("ms", kHeapBase, 64 * kKiB));
    std::uint32_t traffic;
    const Address a = fl.alloc(32, &traffic);
    fl.freeCell(a);
    EXPECT_DEATH(fl.freeCell(a), "freeing a free cell");
}

TEST(FreeList, WithinAllocatedCell)
{
    Heap heap(64 * kKiB);
    FreeListAllocator fl(heap, Space("ms", kHeapBase, 64 * kKiB));
    std::uint32_t traffic;
    const Address a = fl.alloc(128, &traffic);
    EXPECT_TRUE(fl.isWithinAllocatedCell(a + 64));
    fl.freeCell(a);
    EXPECT_FALSE(fl.isWithinAllocatedCell(a + 64));
    EXPECT_FALSE(fl.isWithinAllocatedCell(kHeapBase + 48 * kKiB));
}
