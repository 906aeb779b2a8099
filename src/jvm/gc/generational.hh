/**
 * @file
 * The nursery shared by the generational collectors (GenCopy and
 * GenMS, paper Fig. 3): as in JMTk's generational plans, one nursery
 * sits in front of a mature space the subclass defines.
 *
 * New objects bump-allocate in a nursery of an eighth of the heap;
 * objects of kPretenureBytes or more go straight to the mature space.
 * A write barrier records mature-to-nursery pointers in a sequential
 * store buffer, and a minor collection evacuates the survivors
 * reachable from the roots and that buffer into the mature space. The
 * nursery size adapts (Appel-style) so promotion cannot overflow the
 * mature space unless the live set itself does not fit.
 */

#ifndef JAVELIN_JVM_GC_GENERATIONAL_HH
#define JAVELIN_JVM_GC_GENERATIONAL_HH

#include "jvm/gc/collector.hh"
#include "jvm/gc/evacuator.hh"
#include "jvm/gc/remset.hh"

namespace javelin {
namespace jvm {

/**
 * Nursery, write barrier and minor collection over an abstract mature
 * space.
 */
class GenerationalCollector : public Collector
{
  public:
    /** Objects at least this large are allocated directly in mature. */
    static constexpr std::uint32_t kPretenureBytes = 4096;
    /** Smallest useful nursery before a major collection is forced. */
    static constexpr std::uint64_t kMinNursery = 32 * 1024;

    Address allocate(std::uint32_t bytes) final;
    void writeBarrier(Address holder, Address slot_addr,
                      Address value) final;
    bool needsWriteBarrier() const final { return true; }
    void collect(bool major) final;
    std::uint64_t
    heapUsed() const final
    {
        return nursery_.used() + matureUsedBytes();
    }

    const Space &nursery() const { return nursery_; }
    const RememberedSet &remset() const { return remset_; }
    std::uint64_t nurseryLimit() const { return nurseryLimit_; }

  protected:
    /** Carves the nursery from the start of the heap; the mature
     *  space gets the rest. Subclasses call recomputeNurseryLimit()
     *  once their mature space exists. */
    explicit GenerationalCollector(const GcEnv &env);

    /** Where the mature space starts, right after the nursery. */
    Address matureStart() const { return nursery_.end(); }
    /** Heap bytes left for the mature space. */
    std::uint64_t
    matureBytes() const
    {
        return env_.heap.size() - nursery_.size;
    }

    /** Allocate a pretenured object in the mature space (kNull when
     *  it is full). */
    virtual Address allocMature(std::uint32_t bytes) = 0;
    virtual std::uint64_t matureFreeBytes() const = 0;
    virtual std::uint64_t matureUsedBytes() const = 0;
    /** The allocator a minor collection promotes survivors with. */
    virtual Evacuator::AllocFn promotionTarget() = 0;
    /** A minor pass ran out of mature space: make room and finish the
     *  pass, or set oom_. */
    virtual void promotionFailed(Evacuator &evac) = 0;
    /** Collect the mature space; the nursery is empty afterwards
     *  unless oom_ is set. */
    virtual void majorCollect() = 0;

    void minorCollect();
    /** Drive one evacuation pass over the roots, the remembered set
     *  and the gray queue; false if the promotion target ran out. */
    bool evacuate(Evacuator &evac);
    /** Appel-style bound: never let more bytes accumulate in the
     *  nursery than the mature space can absorb. */
    void recomputeNurseryLimit();

    Space nursery_;
    RememberedSet remset_;
    std::uint64_t nurseryLimit_ = 0;
    bool oom_ = false;
};

} // namespace jvm
} // namespace javelin

#endif // JAVELIN_JVM_GC_GENERATIONAL_HH
