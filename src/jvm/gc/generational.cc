#include "jvm/gc/generational.hh"

#include <algorithm>

namespace javelin {
namespace jvm {

GenerationalCollector::GenerationalCollector(const GcEnv &env)
    : Collector(env),
      // A bounded nursery (an eighth of the heap, as in the JMTk
      // default configuration) leaves the mature space room to breathe.
      nursery_("nursery", env.heap.base(), (env.heap.size() / 8) & ~7ULL),
      remset_(env.system)
{
}

void
GenerationalCollector::recomputeNurseryLimit()
{
    nurseryLimit_ =
        std::min<std::uint64_t>(nursery_.size, matureFreeBytes());
}

Address
GenerationalCollector::allocate(std::uint32_t bytes)
{
    if (oom_)
        return kNull;
    chargeWork(7, kAllocCode);

    if (bytes >= kPretenureBytes) {
        Address addr = allocMature(bytes);
        if (addr == kNull) {
            majorCollect();
            if (oom_)
                return kNull;
            addr = allocMature(bytes);
            if (addr == kNull)
                return kNull;
        }
        recomputeNurseryLimit();
        stats_.bytesAllocated += bytes;
        ++stats_.objectsAllocated;
        return addr;
    }

    for (int attempt = 0; attempt < 3; ++attempt) {
        if (nursery_.used() + bytes <= nurseryLimit_) {
            const Address addr = nursery_.bump(bytes);
            if (addr != kNull) {
                stats_.bytesAllocated += bytes;
                ++stats_.objectsAllocated;
                return addr;
            }
        }
        // Nursery exhausted (or limit shrunk): collect and retry.
        minorCollect();
        if (oom_)
            return kNull;
        if (nurseryLimit_ < std::max<std::uint64_t>(kMinNursery, bytes)) {
            majorCollect();
            if (oom_)
                return kNull;
        }
    }
    return kNull;
}

void
GenerationalCollector::writeBarrier(Address holder, Address slot_addr,
                                    Address value)
{
    if (env_.chargeBarrierCost)
        chargeWork(3, kBarrierCode);
    if (value == kNull || nursery_.contains(holder) ||
        !nursery_.contains(value))
        return;
    ++stats_.barrierHits;
    ++stats_.remsetEntries;
    remset_.record(slot_addr);
}

bool
GenerationalCollector::evacuate(Evacuator &evac)
{
    env_.host.forEachRoot([&evac](Address &ref) {
        evac.processSlot(ref);
    });
    // Remembered-set entries are roots for a minor collection. Replaying
    // the SSB reads the buffer back: charge one window load per entry
    // before walking the recorded slots.
    remset_.chargeReplayReads(env_.fastPath);
    Heap &heap = env_.heap;
    remset_.forEach([&](Address slot) {
        env_.system.cpu().load(slot);
        Address ref = heap.read64(slot);
        const Address before = ref;
        evac.processSlot(ref);
        if (ref != before) {
            env_.system.cpu().store(slot);
            heap.write64(slot, ref);
        }
    });
    evac.drain();
    return !evac.failed();
}

void
GenerationalCollector::minorCollect()
{
    env_.host.gcBegin(false);
    const Tick start = env_.system.cpu().now();

    Evacuator evac(env_, costs_, stats_, MoveRegion::of(nursery_),
                   promotionTarget());
    if (!evacuate(evac)) {
        promotionFailed(evac);
        if (oom_) {
            env_.host.gcEnd(false);
            return;
        }
    }

    remset_.clear();
    nursery_.reset();
    recomputeNurseryLimit();
    ++stats_.collections;
    ++stats_.minorCollections;
    stats_.pauseTicks += env_.system.cpu().now() - start;
    env_.host.gcEnd(false);

    if (nurseryLimit_ < kMinNursery)
        majorCollect();
}

void
GenerationalCollector::collect(bool major)
{
    if (major)
        majorCollect();
    else
        minorCollect();
}

} // namespace jvm
} // namespace javelin
