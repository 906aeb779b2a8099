/**
 * @file
 * Generational mark-sweep collector (GenMS, paper Fig. 3).
 *
 * The shared nursery (generational.hh) promotes survivors into a
 * non-moving segregated free-list space, collected by mark-sweep when
 * it fills. Combines the cheap minor collections of a generational
 * design with mark-sweep's space efficiency (no copy reserve) in the
 * old generation.
 */

#ifndef JAVELIN_JVM_GC_GENMS_HH
#define JAVELIN_JVM_GC_GENMS_HH

#include <vector>

#include "jvm/freelist.hh"
#include "jvm/gc/generational.hh"

namespace javelin {
namespace jvm {

/**
 * Nursery + mark-sweep mature space.
 */
class GenMSCollector final : public GenerationalCollector
{
  public:
    explicit GenMSCollector(const GcEnv &env);

    const char *name() const override { return "GenMS"; }

    const FreeListAllocator &mature() const { return mature_; }

  private:
    Address allocMature(std::uint32_t bytes) override;
    std::uint64_t
    matureFreeBytes() const override
    {
        return mature_.freeBytes();
    }
    std::uint64_t
    matureUsedBytes() const override
    {
        return mature_.usedBytes();
    }
    Evacuator::AllocFn promotionTarget() override;
    void promotionFailed(Evacuator &evac) override;
    void majorCollect() override;
    /** Mark-sweep the mature space only (no nursery preamble).
     *  extra_roots pins objects that are mid-evacuation. */
    void markSweepMature(const std::vector<Address> &extra_roots = {});

    FreeListAllocator mature_;
};

} // namespace jvm
} // namespace javelin

#endif // JAVELIN_JVM_GC_GENMS_HH
