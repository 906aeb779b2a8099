/**
 * @file
 * Set-associative write-back cache model with true-LRU replacement.
 *
 * Models the cache geometries of the paper's two platforms: the Pentium M
 * (32 KB 8-way L1I/L1D, 1 MB 8-way L2) and the PXA255 (32 KB 32-way
 * L1I/L1D, no L2). Timing is handled by the enclosing MemoryHierarchy;
 * this class only tracks hit/miss/victim state and statistics.
 *
 * The access path is split into an inlined memo fast path and an
 * out-of-line way scan (DESIGN.md §5c/§5d/§5g): a direct-mapped,
 * line-indexed way memo (sized to four times the line capacity) remembers
 * which way last held each line, so *every* re-touched resident line —
 * straight-line instruction fetch, the interpreter's handler lines,
 * frame and spill lines across a deep call stack, the GC's scan/copy
 * spans — skips the scan, not just the last two lines per set as the
 * earlier per-set MRU-2 memo did. Call-dense workloads walk hundreds
 * of distinct stack lines between re-touches; per-set recency lost
 * them, a line-indexed table does not. The memo is purely a way
 * index: the fast path re-validates the tag (a tag can only reside in
 * the set it indexes, so a validated match proves the right, valid
 * line), and performs exactly the same LRU clock, dirty-bit and
 * statistics updates as the scan, so no architectural event ever
 * differs (tests/test_cache_diff.cc holds an independent reference
 * model to that contract).
 *
 * Storage is structure-of-arrays (DESIGN.md §5d): the tags of one set
 * are contiguous, so the hit scan touches one host cache line per set;
 * the replacement metadata lives in a parallel array that is only read
 * when a victim must actually be chosen. An invalid way holds a
 * sentinel tag no real line can produce, which keeps the hit scan a
 * single compare per way and lets the MRU memo slots point at a
 * permanently-invalid extra tag slot instead of branching on "memo
 * empty".
 */

#ifndef JAVELIN_SIM_CACHE_HH
#define JAVELIN_SIM_CACHE_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/logging.hh"

namespace javelin {
namespace sim {

/** Simulated physical address. */
using Address = std::uint64_t;

/**
 * One cache level.
 */
class Cache
{
  public:
    struct Config
    {
        std::string name = "cache";
        std::uint64_t sizeBytes = 32 * 1024;
        std::uint32_t assoc = 8;
        std::uint32_t lineBytes = 64;
    };

    /** Outcome of a single cache access. */
    struct Result
    {
        bool hit = false;
        /** A dirty victim line was evicted and must be written back. */
        bool writeback = false;
        /** Hit on a line brought in by the prefetcher (possibly still
         *  in flight — the hierarchy charges a catch-up penalty). */
        bool prefetchedHit = false;
    };

    struct Stats
    {
        std::uint64_t reads = 0;
        std::uint64_t writes = 0;
        std::uint64_t readMisses = 0;
        std::uint64_t writeMisses = 0;
        std::uint64_t writebacks = 0;

        std::uint64_t accesses() const { return reads + writes; }
    };

    explicit Cache(const Config &config);

    /**
     * Access one address. A miss allocates the line (fetch-on-write for
     * stores) and evicts the LRU way, reporting a writeback if the victim
     * was dirty.
     *
     * Fast path: if the line's memo slot still points at a way holding
     * it, the way scan is skipped. A tag can only reside in the set it
     * indexes and invalid ways hold the unreachable sentinel tag, so a
     * tag match on a memoized way proves it is the right, valid line.
     */
    Result
    access(Address addr, bool is_write)
    {
        const Address line = lineNumber(addr);
        const std::uint32_t way = memo_[memoSlot(line)];
        if (tags_[way] == line) [[likely]]
            return hitWay(way, is_write);
        return accessSlow(line, is_write);
    }

    /**
     * Fold `count` further accesses to the line the immediately
     * preceding access() touched, with nothing else in between: the
     * line is resident and its memo slot points at it by construction,
     * so the final cache state and statistics are exactly those of
     * `count` access() calls — the LRU clock ticks once per access,
     * the hit counters grow by `count`, the way's use word ends at the
     * final clock with the dirty bit carried (or set, for writes) and
     * the prefetched bit dropped, just as repeated hitWay calls would
     * leave it. Block accessors use this to skip re-walking the memo
     * for stride runs inside one line.
     */
    void
    repeatHits(Address addr, std::uint32_t count, bool is_write)
    {
        const Address line = lineNumber(addr);
        const std::uint32_t way = memo_[memoSlot(line)];
        JAVELIN_ASSERT(tags_[way] == line,
                       "repeatHits on a non-resident line");
        useClock_ += count;
        if (is_write)
            stats_.writes += count;
        else
            stats_.reads += count;
        use_[way] = (useClock_ << kUseShift) | (use_[way] & kUseDirty) |
                    (is_write ? kUseDirty : 0);
    }

    /**
     * Insert a line on behalf of the prefetcher (no recency claim on
     * the demand stream; the line is tagged as prefetched).
     * @return true if the line was actually filled, false if it was
     *         already resident (no state changes beyond the LRU clock
     *         tick, exactly like the pre-memo early return).
     */
    bool insertPrefetch(Address addr);

    /** True if the line holding addr is currently resident. */
    bool contains(Address addr) const;

    /** Invalidate everything (e.g., between experiment runs). */
    void flush();


    const Config &config() const { return config_; }
    const Stats &stats() const { return stats_; }

  private:
    /**
     * Tag stored for an invalid way. lineBytes >= 2 is asserted, so a
     * real line number is always < 2^63 and can never compare equal.
     */
    static constexpr Address kInvalidTag = ~static_cast<Address>(0);

    /**
     * Replacement/state word of one way: the LRU clock value shifted
     * left two, with the dirty bit at bit 0 and the prefetched bit at
     * bit 1. Use clock values are unique (the clock ticks on every
     * access), so comparing packed words orders ways exactly like
     * comparing raw clock values — and the whole set's replacement
     * state fits one 64-byte host line, where the old per-way struct
     * (clock + three bools, padded) spread a set across three.
     */
    static constexpr std::uint64_t kUseDirty = 1;
    static constexpr std::uint64_t kUsePrefetched = 2;
    static constexpr std::uint64_t kUseShift = 2;

    /** Direct-mapped memo slot of a line. */
    std::size_t
    memoSlot(Address line) const
    {
        return static_cast<std::size_t>(line) & memoMask_;
    }

    /** Full way scan: hit refresh or LRU-victim allocation. Updates the
     *  line's memo slot to the touched way. */
    Result accessSlow(Address line, bool is_write);

    /** Shared hit bookkeeping for the memo fast path and the scan. */
    Result
    hitWay(std::uint32_t way, bool is_write)
    {
        ++useClock_;
        if (is_write)
            ++stats_.writes;
        else
            ++stats_.reads;
        const std::uint64_t old = use_[way];
        use_[way] = (useClock_ << kUseShift) |
                    (old & kUseDirty) |
                    (is_write ? kUseDirty : 0);
        return {true, false, (old & kUsePrefetched) != 0};
    }

    bool wayValid(std::uint32_t way) const
    {
        return tags_[way] != kInvalidTag;
    }
    bool wayDirty(std::uint32_t way) const
    {
        return (use_[way] & kUseDirty) != 0;
    }

    Address lineNumber(Address addr) const { return addr >> lineShift_; }
    std::uint32_t
    setIndex(Address line) const
    {
        return static_cast<std::uint32_t>(line) & setMask_;
    }

    Config config_;
    Stats stats_;
    std::uint32_t numSets_;
    std::uint32_t lineShift_;
    std::uint32_t setMask_;
    std::uint32_t memoMask_;
    /** Line-indexed way memo (direct-mapped, 4x the line capacity);
     *  empty slots point at the sentinel tag slot. */
    std::vector<std::uint32_t> memo_;
    std::uint64_t useClock_ = 0;
    /** numSets_ * assoc set-major tags + one trailing sentinel slot
     *  that permanently holds kInvalidTag (the empty-memo target). */
    std::vector<Address> tags_;
    /** Packed per-way replacement words, numSets_ * assoc, set-major. */
    std::vector<std::uint64_t> use_;
};

} // namespace sim
} // namespace javelin

#endif // JAVELIN_SIM_CACHE_HH
