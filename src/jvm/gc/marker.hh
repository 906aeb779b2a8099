/**
 * @file
 * Shared mark-phase machinery for the tracing (non-copying) collectors:
 * MarkSweep, the mature space of GenMS, and the final/stop-the-world
 * phases of Kaffe's incremental collector.
 */

#ifndef JAVELIN_JVM_GC_MARKER_HH
#define JAVELIN_JVM_GC_MARKER_HH

#include <functional>
#include <vector>

#include "jvm/gc/collector.hh"

namespace javelin {
namespace jvm {

/**
 * Depth-first marker with an explicit mark stack.
 *
 * Two semantically identical drive modes (GcEnv::fastPath), both
 * emitting the v2 per-object charge stream (one folded kSpecMarkEdge
 * charge and one slot-load block per popped object — DESIGN.md §5e):
 * the fast path walks the graph through the ObjectView memo and raw
 * heap reads with polls hoisted behind a deficit counter; the
 * reference path is a naive scalar loop over the timed ObjectModel
 * accessors, kept as the differential-test oracle
 * (tests/test_gc_diff.cc).
 */
class Marker
{
  public:
    /** Restricts marking to a region (others are treated as pinned). */
    using InRegionFn = std::function<bool(Address)>;

    Marker(const GcEnv &env, const GcCostTable &costs,
           Collector::Stats &stats);

    /** Mark one reference (and queue its children). */
    void processRef(Address ref);

    /** Mark everything reachable from the VM roots. */
    void markFromRoots();

    /** Drain the mark stack. */
    void drain();

  private:
    void drainFast();
    void drainReference();

    const GcEnv &env_;
    const GcCostTable &costs_;
    Collector::Stats &stats_;
    std::vector<Address> stack_;
    std::vector<Address> children_;
};

} // namespace jvm
} // namespace javelin

#endif // JAVELIN_JVM_GC_MARKER_HH
