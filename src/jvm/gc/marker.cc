#include "jvm/gc/marker.hh"

#include "jvm/address.hh"

namespace javelin {
namespace jvm {

Marker::Marker(const GcEnv &env, const GcCostTable &costs,
               Collector::Stats &stats)
    : env_(env), costs_(costs), stats_(stats)
{
    stack_.reserve(1024);
    children_.reserve(64);
}

void
Marker::processRef(Address ref)
{
    ObjectModel &om = env_.om;
    std::uint32_t bits;
    // Follow forwarding pointers: a mark phase can run while an
    // abandoned evacuation has left forwarded shells behind.
    for (;;) {
        if (ref == kNull)
            return;
        bits = om.loadGcBits(ref);
        if (!(bits & kForwardedBit))
            break;
        ref = om.loadForwarding(ref);
    }
    if (bits & kMarkBit)
        return;
    om.storeGcBits(ref, bits | kMarkBit);
    ++stats_.objectsMarked;
    stack_.push_back(ref);
    costs_.charge(env_.system.cpu(), kSpecMarkObject, 1);
}

/**
 * Batched drain (DESIGN.md §5e): per popped object, one folded
 * kSpecMarkEdge charge for all its edges, one slot-load block, then
 * the per-child test-and-mark events — the same v2 stream the
 * reference drain emits, produced from the ObjectView memo and raw
 * heap reads instead of the timed accessor chain.
 *
 * Poll hoisting (the doNativeWork technique): the reference drain
 * polls once per popped object, but a poll only does work when a
 * periodic task is due. gcPollFreeUnits() bounds, conservatively, how
 * many work units can run before the next deadline; each event below
 * decrements the budget by at least its unit weight, so every object
 * boundary skipped while the budget stays positive provably satisfies
 * now < due — a no-op poll. The first boundary at which a task CAN be
 * due is therefore always one where we do poll, and since the event
 * stream (hence the tick at that boundary) is identical to the
 * reference path's, the task fires at the identical tick.
 * test_gc_diff pins this with a tick-recording periodic task.
 */
void
Marker::drainFast()
{
    ObjectModel &om = env_.om;
    Heap &heap = env_.heap;
    sim::CpuModel &cpu = env_.system.cpu();
    std::int64_t budget =
        static_cast<std::int64_t>(gcPollFreeUnits(env_.system));
    while (!stack_.empty()) {
        const Address obj = stack_.back();
        stack_.pop_back();
        // Safe to hold by reference: marking rewrites no header word
        // other than gcBits, which the view does not cache.
        const ObjectView &v = om.view(obj);
        const std::uint32_t refs = v.refs;
        if (refs == 0)
            continue; // zero events — the skipped poll is a no-op
        costs_.charge(cpu, kSpecMarkEdge, refs);
        const Address slot0 = obj + kHeaderBytes;
        cpu.loadBlock(slot0, refs, kSlotBytes);
        std::uint64_t units =
            GcCostTable::chargeUnits(gc_costs::kMarkPerEdge * refs) +
            refs;
        for (std::uint32_t i = 0; i < refs; ++i) {
            Address child = v.ref(i);
            std::uint32_t bits;
            for (;;) {
                if (child == kNull)
                    goto next_child;
                cpu.load(child + kGcBitsOffset);
                ++units;
                bits = heap.read32(child + kGcBitsOffset);
                if (!(bits & kForwardedBit))
                    break;
                cpu.load(child);
                ++units;
                child = heap.read64(child + kClassIdOffset);
            }
            if (bits & kMarkBit)
                goto next_child;
            cpu.store(child + kGcBitsOffset);
            heap.write32(child + kGcBitsOffset, bits | kMarkBit);
            ++stats_.objectsMarked;
            stack_.push_back(child);
            costs_.charge(cpu, kSpecMarkObject, 1);
            units += 2; // store + single-item charge
          next_child:;
        }
        budget -= static_cast<std::int64_t>(units);
        if (budget <= 0) {
            env_.system.poll();
            budget =
                static_cast<std::int64_t>(gcPollFreeUnits(env_.system));
        }
    }
}

/** Naive scalar drain over the timed accessors — the oracle. Emits the
 *  identical v2 stream: folded edge charge, slot loads in slot order,
 *  then each child's test-and-mark events, one poll per object. */
void
Marker::drainReference()
{
    ObjectModel &om = env_.om;
    while (!stack_.empty()) {
        const Address obj = stack_.back();
        stack_.pop_back();
        const std::uint32_t refs = om.refCountRaw(obj);
        if (refs == 0)
            continue;
        costs_.charge(env_.system.cpu(), kSpecMarkEdge, refs);
        children_.clear();
        for (std::uint32_t i = 0; i < refs; ++i)
            children_.push_back(om.loadRef(obj, i));
        for (const Address child : children_)
            processRef(child);
        env_.system.poll();
    }
}

void
Marker::drain()
{
    if (env_.fastPath)
        drainFast();
    else
        drainReference();
}

void
Marker::markFromRoots()
{
    env_.host.forEachRoot([this](Address &ref) { processRef(ref); });
    drain();
}

} // namespace jvm
} // namespace javelin
