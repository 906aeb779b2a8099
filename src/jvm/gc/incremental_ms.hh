/**
 * @file
 * Kaffe's incremental, conservative, tri-colour mark-sweep collector
 * (paper Section IV-A).
 *
 * A marking cycle starts when heap occupancy crosses a trigger fraction.
 * Marking then proceeds in small increments piggybacked on allocation
 * (each allocation advances the collector by a few objects), with a
 * Dijkstra-style insertion write barrier keeping the tri-colour
 * invariant. When the gray set drains, roots are rescanned atomically
 * (the conservative stack scan) and the heap is swept. Objects
 * allocated during marking are born black.
 */

#ifndef JAVELIN_JVM_GC_INCREMENTAL_MS_HH
#define JAVELIN_JVM_GC_INCREMENTAL_MS_HH

#include <vector>

#include "jvm/freelist.hh"
#include "jvm/gc/collector.hh"

namespace javelin {
namespace jvm {

/**
 * Incremental tri-colour mark-sweep (the Kaffe collector).
 */
class IncrementalMSCollector : public Collector
{
  public:
    explicit IncrementalMSCollector(const GcEnv &env);

    const char *name() const override { return "IncMS"; }
    Address allocate(std::uint32_t bytes) override;
    void writeBarrier(Address holder, Address slot_addr,
                      Address value) override;
    bool needsWriteBarrier() const override { return true; }
    void collect(bool major) override;
    std::uint64_t heapUsed() const override;

    /** Hook: objects allocated while marking are born black. */
    void postInit(Address obj) override;

    bool marking() const { return marking_; }
    const FreeListAllocator &allocator() const { return alloc_; }

  private:
    /** Start marking above this fraction of heap bytes in use. */
    static constexpr double kTriggerFraction = 0.70;
    /** Objects traced per allocation while marking. */
    static constexpr std::uint32_t kStepObjects = 4;

    void startCycle();
    /** Trace up to n gray objects; finishes the cycle when drained. */
    void step(std::uint32_t n);
    /** Shade one reference gray if white. */
    void shade(Address ref);
    /** Scan one gray object, blackening it (reference oracle). */
    void scanObject(Address obj);
    /** Batched scanObject: identical v2 stream via the view memo. */
    void scanObjectFast(Address obj);
    /** Atomic finish: rescan roots, drain, sweep. */
    void finishCycle();
    void sweep();

    FreeListAllocator alloc_;
    bool marking_ = false;
    std::vector<Address> gray_;
    std::vector<Address> children_;
    /** Deficit units accrued by shade/scan charges (fast drain). */
    std::uint64_t unitAcc_ = 0;
};

} // namespace jvm
} // namespace javelin

#endif // JAVELIN_JVM_GC_INCREMENTAL_MS_HH
