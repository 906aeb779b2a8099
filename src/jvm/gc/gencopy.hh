/**
 * @file
 * Generational copying collector (GenCopy, paper Fig. 3).
 *
 * The shared nursery (generational.hh) promotes survivors into a
 * mature space managed as a pair of semispaces, which a full copying
 * pass collects when it fills.
 */

#ifndef JAVELIN_JVM_GC_GENCOPY_HH
#define JAVELIN_JVM_GC_GENCOPY_HH

#include "jvm/gc/generational.hh"

namespace javelin {
namespace jvm {

/**
 * Nursery + copying mature space.
 */
class GenCopyCollector final : public GenerationalCollector
{
  public:
    explicit GenCopyCollector(const GcEnv &env);

    const char *name() const override { return "GenCopy"; }

    const Space &matureActive() const { return mature_[activeHalf_]; }

  private:
    Address
    allocMature(std::uint32_t bytes) override
    {
        return mature_[activeHalf_].bump(bytes);
    }
    std::uint64_t
    matureFreeBytes() const override
    {
        return mature_[activeHalf_].freeBytes();
    }
    std::uint64_t
    matureUsedBytes() const override
    {
        return mature_[activeHalf_].used();
    }
    Evacuator::AllocFn promotionTarget() override;
    void promotionFailed(Evacuator &evac) override;
    void majorCollect() override;

    Space mature_[2];
    int activeHalf_ = 0;
};

} // namespace jvm
} // namespace javelin

#endif // JAVELIN_JVM_GC_GENCOPY_HH
