#include "jvm/gc/incremental_ms.hh"

#include "jvm/gc/sweeper.hh"

namespace javelin {
namespace jvm {

IncrementalMSCollector::IncrementalMSCollector(const GcEnv &env)
    : Collector(env),
      alloc_(env.heap, Space("incms", env.heap.base(), env.heap.size()))
{
    gray_.reserve(1024);
}

void
IncrementalMSCollector::shade(Address ref)
{
    if (ref == kNull)
        return;
    ObjectModel &om = env_.om;
    const std::uint32_t bits = om.loadGcBits(ref);
    ++unitAcc_;
    if (bits & kMarkBit)
        return;
    om.storeGcBits(ref, bits | kMarkBit);
    ++stats_.objectsMarked;
    gray_.push_back(ref);
    costs_.charge(env_.system.cpu(), kSpecMarkObject, 1);
    unitAcc_ += 2; // store + single-item charge
}

/**
 * Kaffe's scan charges kMarkPerEdge once per *object* (not per edge) —
 * a historical quirk both drive modes preserve. The v2 stream is the
 * charge, then the slot loads in slot order, then the shades.
 */
void
IncrementalMSCollector::scanObject(Address obj)
{
    ObjectModel &om = env_.om;
    const std::uint32_t refs = om.refCountRaw(obj);
    costs_.charge(env_.system.cpu(), kSpecMarkEdge, 1);
    children_.clear();
    for (std::uint32_t i = 0; i < refs; ++i)
        children_.push_back(om.loadRef(obj, i));
    for (const Address child : children_)
        shade(child);
}

void
IncrementalMSCollector::scanObjectFast(Address obj)
{
    // Header decode through the dual-MRU memo; marking rewrites no
    // header word other than gcBits (uncached), so the reference stays
    // valid across the shades.
    sim::CpuModel &cpu = env_.system.cpu();
    const ObjectView &v = env_.om.view(obj);
    costs_.charge(cpu, kSpecMarkEdge, 1);
    ++unitAcc_;
    const Address slot0 = obj + kHeaderBytes;
    cpu.loadBlock(slot0, v.refs, kSlotBytes);
    unitAcc_ += v.refs;
    for (std::uint32_t i = 0; i < v.refs; ++i)
        shade(v.ref(i));
}

void
IncrementalMSCollector::startCycle()
{
    env_.host.gcBegin(false);
    marking_ = true;
    // Root scan: Kaffe scans thread stacks conservatively, so charge a
    // full word-by-word walk in addition to the precise shading.
    env_.host.forEachRoot([this](Address &ref) {
        chargeWork(3, kGcScanCode);
        shade(ref);
    });
    ++stats_.minorCollections; // counts marking increments started
    env_.host.gcEnd(false);
}

void
IncrementalMSCollector::step(std::uint32_t n)
{
    env_.host.gcBegin(false);
    while (n-- > 0 && !gray_.empty()) {
        const Address obj = gray_.back();
        gray_.pop_back();
        if (env_.fastPath)
            scanObjectFast(obj);
        else
            scanObject(obj);
    }
    env_.host.gcEnd(false);
    if (gray_.empty())
        finishCycle();
}

void
IncrementalMSCollector::finishCycle()
{
    env_.host.gcBegin(true);
    const Tick start = env_.system.cpu().now();

    // Atomic termination: rescan roots (mutator may have moved white
    // references into registers since the initial scan), drain, sweep.
    env_.host.forEachRoot([this](Address &ref) {
        chargeWork(3, kGcScanCode);
        shade(ref);
    });
    if (env_.fastPath) {
        // Deficit-counter poll hoisting; see Marker::drainFast for the
        // identical-poll-ticks argument.
        std::int64_t budget =
            static_cast<std::int64_t>(gcPollFreeUnits(env_.system));
        while (!gray_.empty()) {
            const Address obj = gray_.back();
            gray_.pop_back();
            unitAcc_ = 0;
            scanObjectFast(obj);
            budget -= static_cast<std::int64_t>(unitAcc_);
            if (budget <= 0) {
                env_.system.poll();
                budget = static_cast<std::int64_t>(
                    gcPollFreeUnits(env_.system));
            }
        }
    } else {
        while (!gray_.empty()) {
            const Address obj = gray_.back();
            gray_.pop_back();
            scanObject(obj);
            env_.system.poll();
        }
    }
    sweep();
    marking_ = false;

    ++stats_.collections;
    ++stats_.majorCollections;
    stats_.pauseTicks += env_.system.cpu().now() - start;
    env_.host.gcEnd(true);
}

void
IncrementalMSCollector::sweep()
{
    sweepFreeListSpace(env_, costs_, alloc_, stats_);
}

Address
IncrementalMSCollector::allocate(std::uint32_t bytes)
{
    chargeWork(9, kAllocCode);

    if (marking_)
        step(kStepObjects);

    std::uint32_t traffic = 0;
    Address addr = alloc_.alloc(bytes, &traffic);
    if (addr == kNull) {
        // Out of cells: finish any in-flight cycle, else run a full
        // stop-the-world cycle, then retry once.
        if (marking_) {
            finishCycle();
        } else {
            startCycle();
            if (marking_)
                finishCycle();
        }
        addr = alloc_.alloc(bytes, &traffic);
        if (addr == kNull)
            return kNull;
    }
    env_.system.cpu().loadBlock(addr, traffic, 0);

    stats_.bytesAllocated += bytes;
    ++stats_.objectsAllocated;

    if (!marking_ &&
        static_cast<double>(alloc_.usedBytes()) >
            kTriggerFraction * static_cast<double>(env_.heap.size()))
        startCycle();

    return addr;
}

void
IncrementalMSCollector::postInit(Address obj)
{
    // Allocate-black: objects born during marking survive this cycle.
    if (marking_) {
        ObjectModel &om = env_.om;
        om.setGcBitsRaw(obj, om.gcBitsRaw(obj) | kMarkBit);
    }
}

void
IncrementalMSCollector::writeBarrier(Address holder, Address slot_addr,
                                     Address value)
{
    (void)holder;
    (void)slot_addr;
    if (env_.chargeBarrierCost)
        chargeWork(2, kBarrierCode);
    if (!marking_ || value == kNull)
        return;
    // Dijkstra insertion barrier: the stored reference is shaded so a
    // black holder can never point at a white object.
    ++stats_.barrierHits;
    env_.host.gcBegin(false);
    shade(value);
    env_.host.gcEnd(false);
}

void
IncrementalMSCollector::collect(bool major)
{
    if (!marking_)
        startCycle();
    if (major)
        finishCycle();
    else if (marking_)
        step(kStepObjects * 8);
}

std::uint64_t
IncrementalMSCollector::heapUsed() const
{
    return alloc_.usedBytes();
}

} // namespace jvm
} // namespace javelin
