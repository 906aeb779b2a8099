/**
 * @file
 * Segregated-fit free-list allocator used by the mark-sweep spaces.
 *
 * The paper's MarkSweep collector "uses a list of available fixed-size
 * memory chunks to allocate new objects" (Section III-B). This allocator
 * carves the space into 16 KiB blocks, assigns each block a size class,
 * and threads free cells of each class onto in-heap singly-linked free
 * lists (the next pointer lives in the first word of the free cell, as
 * in real segregated-fit allocators, so allocation and sweeping generate
 * genuine heap traffic).
 *
 * Free lists are per block (as in MMTk-style block-structured
 * mark-sweep): each block owns the list of its own free cells, and each
 * size class keeps an intrusive list of blocks with something on their
 * list. Two properties fall out of that structure (DESIGN.md §5f):
 *
 *  - free cells survive across collections — a sweep appends newly-dead
 *    cells to the surviving lists instead of rebuilding from scratch,
 *    so a cell freed in one cycle and not reused before the next no
 *    longer leaks;
 *  - a block whose cells are all free at the end of a sweep is retired
 *    to a *virgin pool* (endSweep) and can be re-carved later for any
 *    size class, so one class's historical peak no longer ratchets the
 *    space another class could use.
 */

#ifndef JAVELIN_JVM_FREELIST_HH
#define JAVELIN_JVM_FREELIST_HH

#include <array>
#include <cstdint>
#include <vector>

#include "jvm/heap.hh"

namespace javelin {
namespace jvm {

/**
 * Block-structured segregated-fit allocator over one Space.
 */
class FreeListAllocator
{
  public:
    static constexpr std::uint32_t kBlockBytes = 16 * 1024;

    /** Cell size classes; the largest equals a whole block. */
    static constexpr std::array<std::uint32_t, 18> kSizeClasses = {
        16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768,
        1024, 1536, 2048, 4096, 8192, 16384,
    };
    static constexpr std::uint32_t kNumClasses = kSizeClasses.size();
    static constexpr std::uint32_t kMaxCellBytes = kSizeClasses.back();

    /** Host-side metadata for one block. */
    struct Block
    {
        Address start = 0;
        std::uint32_t cellBytes = 0;
        std::uint32_t sizeClass = 0;
        std::uint32_t cellCount = 0;
        /** Cells carved so far (fresh blocks are bump-allocated). */
        std::uint32_t bumpCells = 0;
        /** Carved cells currently allocated. */
        std::uint32_t liveCells = 0;
        /** Carved cells on this block's free list. */
        std::uint32_t freeCells = 0;
        /** Head of this block's in-heap free list (kNull = empty). */
        Address freeHead = kNull;
        /** Intrusive links in the class's avail-block list (-1 = end). */
        std::int32_t availNext = -1;
        std::int32_t availPrev = -1;
        bool inAvail = false;
        /** Retired to the virgin pool, awaiting reassignment. */
        bool virgin = false;
        /** One bit per cell: allocated or free. */
        std::vector<std::uint64_t> allocBits;

        bool allocated(std::uint32_t cell) const;
        void setAllocated(std::uint32_t cell, bool on);
    };

    /** Manage the whole blocks of `space`: its size is rounded down
     *  to a multiple of kBlockBytes. */
    FreeListAllocator(Heap &heap, const Space &space);

    /** Size class index for a request; panics above kMaxCellBytes. */
    static std::uint32_t classFor(std::uint32_t bytes);

    /**
     * Allocate a cell able to hold the requested bytes. Returns 0 when
     * memory is exhausted (caller should collect and retry).
     * Reports the number of heap words touched through *traffic so the
     * caller can charge the CPU model.
     */
    Address alloc(std::uint32_t bytes, std::uint32_t *traffic_loads);

    /**
     * Return a cell to its block's free list (sweep path). The caller
     * charges one store for the free-list link write. The cell is
     * immediately reusable by alloc().
     */
    void freeCell(Address addr);

    /** True if addr is the start of a currently-allocated cell. */
    bool isAllocatedCell(Address addr) const;

    /** True if addr lies anywhere inside a currently-allocated cell. */
    bool isWithinAllocatedCell(Address addr) const;

    /** Start of a sweep. Free lists persist across sweeps (the sweep
     *  appends corpses); this only drops memoized state. */
    void beginSweep();

    /**
     * End of a sweep: retire every block whose carved cells are all
     * free to the virgin pool, making its 16 KiB reassignable to any
     * size class. Host metadata only — the sweep already issued the
     * per-cell link traffic.
     */
    void endSweep();

    /** Bytes currently handed out (cell granularity). */
    std::uint64_t usedBytes() const { return usedBytes_; }

    /** Bytes not yet carved plus free-listed plus retired blocks. */
    std::uint64_t freeBytes() const;

    /** Blocks currently in the virgin pool. */
    std::size_t virginBlockCount() const { return virginBlocks_.size(); }

    const std::vector<Block> &blocks() const { return blocks_; }
    const Space &space() const { return space_; }

    /** Cell size of the block containing addr. */
    std::uint32_t cellBytesAt(Address addr) const;

  private:
    Block *blockOf(Address addr);
    const Block *blockOf(Address addr) const;
    Block *newBlock(std::uint32_t size_class);
    void availPush(std::uint32_t k, std::uint32_t idx);
    void availRemove(std::uint32_t k, std::uint32_t idx);

    Heap &heap_;
    Space space_;
    std::vector<Block> blocks_;
    /** Heads of the per-class avail-block lists (-1 = empty). */
    std::array<std::int32_t, kNumClasses> availHead_;
    /** Block currently being bump-carved, one per size class (-1 none). */
    std::array<std::int32_t, kNumClasses> carveBlock_;
    /** Fully-free blocks awaiting reassignment (endSweep). */
    std::vector<std::uint32_t> virginBlocks_;
    std::uint64_t usedBytes_ = 0;
    std::uint64_t freeListedBytes_ = 0;
};

} // namespace jvm
} // namespace javelin

#endif // JAVELIN_JVM_FREELIST_HH
