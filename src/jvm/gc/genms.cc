#include "jvm/gc/genms.hh"

#include "jvm/gc/marker.hh"
#include "jvm/gc/sweeper.hh"

namespace javelin {
namespace jvm {

GenMSCollector::GenMSCollector(const GcEnv &env)
    : GenerationalCollector(env),
      mature_(env.heap, Space("genms-mature", matureStart(), matureBytes()))
{
    recomputeNurseryLimit();
}

Address
GenMSCollector::allocMature(std::uint32_t bytes)
{
    std::uint32_t traffic = 0;
    const Address addr = mature_.alloc(bytes, &traffic);
    if (addr != kNull)
        env_.system.cpu().loadBlock(addr, traffic, 0);
    return addr;
}

Evacuator::AllocFn
GenMSCollector::promotionTarget()
{
    return [this](std::uint32_t bytes, std::uint32_t *traffic) {
        // The evacuator charges the reported free-list traffic at the
        // same event position allocMature does.
        return mature_.alloc(bytes, traffic);
    };
}

void
GenMSCollector::promotionFailed(Evacuator &evac)
{
    // Mark-sweep the mature space and RESUME the same evacuation pass:
    // the gray queue still holds copied-but-unscanned objects whose
    // reference slots point into the nursery, so abandoning the pass
    // would leave dangling young pointers behind. Pending copies are
    // pinned as mark roots or the sweep could reclaim them mid-flight.
    std::vector<Address> pending;
    evac.forEachPending([&](Address a) { pending.push_back(a); });
    markSweepMature(pending);
    evac.resetFailure();
    if (!evacuate(evac))
        oom_ = true;
}

void
GenMSCollector::majorCollect()
{
    // Empty the nursery first so the mark-sweep pass only sees the
    // mature space (standard GenMS discipline).
    if (nursery_.used() > 0) {
        minorCollect();
        if (oom_)
            return;
    }
    markSweepMature();
}

void
GenMSCollector::markSweepMature(const std::vector<Address> &extra_roots)
{
    env_.host.gcBegin(true);
    const Tick start = env_.system.cpu().now();

    Marker marker(env_, costs_, stats_);
    for (const Address a : extra_roots)
        marker.processRef(a);
    marker.markFromRoots();

    // Sweep the mature free lists.
    sweepFreeListSpace(env_, costs_, mature_, stats_);

    // Entries whose holder cell was just swept are stale; processing
    // them later would scribble on free-list links. Entries into live
    // cells stay: a retrying minor collection still needs those
    // old-to-young edges.
    remset_.pruneIf([this](Address slot) {
        return !mature_.isWithinAllocatedCell(slot);
    });
    recomputeNurseryLimit();
    ++stats_.collections;
    ++stats_.majorCollections;
    stats_.pauseTicks += env_.system.cpu().now() - start;
    env_.host.gcEnd(true);
}

} // namespace jvm
} // namespace javelin
