#include "jvm/gc/gencopy.hh"

namespace javelin {
namespace jvm {

GenCopyCollector::GenCopyCollector(const GcEnv &env)
    : GenerationalCollector(env)
{
    const std::uint64_t half = (matureBytes() / 2) & ~7ULL;
    mature_[0] = Space("mature0", matureStart(), half);
    mature_[1] = Space("mature1", matureStart() + half, half);
    recomputeNurseryLimit();
}

Evacuator::AllocFn
GenCopyCollector::promotionTarget()
{
    Space &target = mature_[activeHalf_];
    return [&target](std::uint32_t bytes, std::uint32_t *) {
        return target.bump(bytes);
    };
}

void
GenCopyCollector::promotionFailed(Evacuator &)
{
    // The Appel bound makes this unreachable unless the heap itself is
    // too small for the live set; fall back to a major collection.
    majorCollect();
}

void
GenCopyCollector::majorCollect()
{
    env_.host.gcBegin(true);
    const Tick start = env_.system.cpu().now();

    Space &from = mature_[activeHalf_];
    Space &to = mature_[1 - activeHalf_];
    to.reset();

    Evacuator evac(
        env_, costs_, stats_, MoveRegion::of(nursery_, from),
        [&to](std::uint32_t bytes, std::uint32_t *) {
            return to.bump(bytes);
        });

    env_.host.forEachRoot([&evac](Address &ref) {
        evac.processSlot(ref);
    });
    evac.drain();

    if (evac.failed()) {
        // Live data exceeds one mature half: genuine out-of-memory.
        oom_ = true;
    } else {
        from.reset();
        activeHalf_ = 1 - activeHalf_;
        nursery_.reset();
    }
    remset_.clear();
    recomputeNurseryLimit();

    ++stats_.collections;
    ++stats_.majorCollections;
    stats_.pauseTicks += env_.system.cpu().now() - start;
    env_.host.gcEnd(true);
}

} // namespace jvm
} // namespace javelin
