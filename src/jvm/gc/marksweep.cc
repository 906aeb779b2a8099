#include "jvm/gc/marksweep.hh"

#include "jvm/gc/marker.hh"
#include "jvm/gc/sweeper.hh"

namespace javelin {
namespace jvm {

MarkSweepCollector::MarkSweepCollector(const GcEnv &env)
    : Collector(env),
      alloc_(env.heap, Space("ms", env.heap.base(), env.heap.size()))
{
}

Address
MarkSweepCollector::allocate(std::uint32_t bytes)
{
    std::uint32_t traffic = 0;
    // Size-class dispatch and free-list pop.
    chargeWork(9, kAllocCode);
    Address addr = alloc_.alloc(bytes, &traffic);
    if (addr == kNull) {
        collect(true);
        chargeWork(9, kAllocCode);
        addr = alloc_.alloc(bytes, &traffic);
        if (addr == kNull)
            return kNull;
    }
    // Free-list link chasing re-touches the popped cell.
    env_.system.cpu().loadBlock(addr, traffic, 0);
    stats_.bytesAllocated += bytes;
    ++stats_.objectsAllocated;
    return addr;
}

void
MarkSweepCollector::sweep()
{
    sweepFreeListSpace(env_, costs_, alloc_, stats_);
}

void
MarkSweepCollector::collect(bool major)
{
    (void)major;
    env_.host.gcBegin(true);
    const Tick start = env_.system.cpu().now();

    Marker marker(env_, costs_, stats_);
    marker.markFromRoots();
    sweep();

    ++stats_.collections;
    ++stats_.majorCollections;
    stats_.pauseTicks += env_.system.cpu().now() - start;
    env_.host.gcEnd(true);
}

std::uint64_t
MarkSweepCollector::heapUsed() const
{
    return alloc_.usedBytes();
}

} // namespace jvm
} // namespace javelin
