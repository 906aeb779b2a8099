/**
 * @file
 * SemiSpace copying collector (paper Section III-B).
 *
 * The heap is divided into two halves; objects bump-allocate into the
 * active half, and when it fills, live objects are copied into the other
 * half and the roles invert. Copying compacts survivors in traversal
 * order, which is the source of the mutator-locality benefit the paper
 * observes for _209_db at large heaps.
 */

#ifndef JAVELIN_JVM_GC_SEMISPACE_HH
#define JAVELIN_JVM_GC_SEMISPACE_HH

#include "jvm/gc/collector.hh"

namespace javelin {
namespace jvm {

/**
 * Classic two-space copying collector.
 */
class SemiSpaceCollector : public Collector
{
  public:
    explicit SemiSpaceCollector(const GcEnv &env);

    const char *name() const override { return "SemiSpace"; }
    Address allocate(std::uint32_t bytes) override;
    void collect(bool major) override;
    std::uint64_t heapUsed() const override { return active_.used(); }

  private:
    Space active_;
    Space idle_;
};

} // namespace jvm
} // namespace javelin

#endif // JAVELIN_JVM_GC_SEMISPACE_HH
