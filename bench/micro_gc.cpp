/**
 * @file
 * M1: collector micro-benchmarks (google-benchmark). Measures the
 * simulator's host throughput in the three GC traversal phases: marking
 * a fully-live graph (MarkSweep), Cheney evacuation of a live linked
 * graph (SemiSpace), and sweeping scalar garbage (MarkSweep).
 */

#include <benchmark/benchmark.h>

#include "jvm/gc/collector.hh"
#include "sim/platform.hh"
#include "util/random.hh"

using namespace javelin;
using namespace javelin::jvm;

namespace {

std::vector<ClassInfo>
classes()
{
    std::vector<ClassInfo> v(1);
    v[0].id = 0;
    v[0].name = "Node";
    v[0].refFields = 2;
    v[0].scalarFields = 4;
    return v;
}

class NullHost : public GcHost
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

/**
 * Mark-phase throughput: a fully-live graph (deep list spine plus wide
 * ref arrays) under MarkSweep, so each collect(true) is dominated by
 * Marker::drain edge traversal. Nothing dies, so the sweep only clears
 * mark bits.
 */
void
BM_GcMark(benchmark::State &state)
{
    sim::System system(sim::p6Spec());
    Heap heap(8 * kMiB);
    auto cls = classes();
    ClassInfo arr;
    arr.id = 1;
    arr.name = "Object[]";
    arr.isRefArray = true;
    cls.push_back(arr);
    ObjectModel om(heap, system.cpu(), cls);
    NullHost host;
    auto collector =
        makeCollector(CollectorKind::MarkSweep,
                      GcEnv{heap, om, system, host});

    const std::uint32_t nodeBytes = om.objectBytes(cls[0], 0);
    constexpr std::uint32_t kArrayLen = 32;
    const std::uint32_t arrBytes = om.objectBytes(cls[1], kArrayLen);
    host.roots.assign(1, kNull);
    std::uint64_t liveObjects = 0;
    for (int i = 0; i < 1500; ++i) {
        const Address a = collector->allocate(arrBytes);
        om.initObject(a, cls[1], arrBytes, kArrayLen);
        for (std::uint32_t s = 0; s < kArrayLen; ++s) {
            const Address n = collector->allocate(nodeBytes);
            om.initObject(n, cls[0], nodeBytes, 0);
            om.storeRef(n, 0, host.roots[0]); // spine link
            om.storeRef(a, s, n);
            ++liveObjects;
        }
        om.storeRef(a, kArrayLen - 1, host.roots[0]);
        host.roots[0] = a;
        ++liveObjects;
    }

    for (auto _ : state)
        collector->collect(true);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * liveObjects));
    state.counters["objects_marked"] =
        static_cast<double>(collector->stats().objectsMarked);
}

/**
 * Evacuation throughput: a live linked graph under SemiSpace, so each
 * collect(true) copies the whole live set through
 * Evacuator::processSlot/scanObject (Cheney drain).
 */
void
BM_GcEvacuate(benchmark::State &state)
{
    sim::System system(sim::p6Spec());
    Heap heap(8 * kMiB);
    auto cls = classes();
    ObjectModel om(heap, system.cpu(), cls);
    NullHost host;
    auto collector =
        makeCollector(CollectorKind::SemiSpace,
                      GcEnv{heap, om, system, host});

    const std::uint32_t bytes = om.objectBytes(cls[0], 0);
    Rng rng(13);
    host.roots.assign(64, kNull);
    constexpr std::uint64_t kLive = 20000;
    for (std::uint64_t i = 0; i < kLive; ++i) {
        const Address a = collector->allocate(bytes);
        om.initObject(a, cls[0], bytes, 0);
        const Address t0 = host.roots[rng.uniformInt(64)];
        if (t0 != kNull)
            om.storeRef(a, 0, t0);
        const Address t1 = host.roots[rng.uniformInt(64)];
        if (t1 != kNull)
            om.storeRef(a, 1, t1);
        host.roots[rng.uniformInt(64)] = a;
    }

    for (auto _ : state)
        collector->collect(true);
    state.SetItemsProcessed(static_cast<std::int64_t>(
        collector->stats().objectsCopied));
    state.counters["objects_copied"] =
        static_cast<double>(collector->stats().objectsCopied);
}

/**
 * Sweep throughput: scalar-only garbage under MarkSweep (no edges, so
 * marking touches just the roots) — each iteration refills the free
 * lists with short-lived cells and collect(true) sweeps every block.
 */
void
BM_GcSweep(benchmark::State &state)
{
    sim::System system(sim::p6Spec());
    Heap heap(8 * kMiB);
    std::vector<ClassInfo> cls(1);
    cls[0].id = 0;
    cls[0].name = "Leaf";
    cls[0].refFields = 0;
    cls[0].scalarFields = 6; // 64-byte cells
    ObjectModel om(heap, system.cpu(), cls);
    NullHost host;
    auto collector =
        makeCollector(CollectorKind::MarkSweep,
                      GcEnv{heap, om, system, host});

    const std::uint32_t bytes = om.objectBytes(cls[0], 0);
    constexpr int kGarbage = 20000;
    std::uint64_t cells = 0;
    for (auto _ : state) {
        for (int i = 0; i < kGarbage; ++i) {
            const Address a = collector->allocate(bytes);
            if (a == kNull) {
                state.SkipWithError("unexpected OOM");
                return;
            }
            om.initObject(a, cls[0], bytes, 0);
        }
        collector->collect(true);
        cells += kGarbage;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(cells));
    state.counters["bytes_freed"] =
        static_cast<double>(collector->stats().bytesFreed);
}

} // namespace

BENCHMARK(BM_GcMark)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GcEvacuate)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GcSweep)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
