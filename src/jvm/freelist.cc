#include "jvm/freelist.hh"

#include <algorithm>

namespace javelin {
namespace jvm {

bool
FreeListAllocator::Block::allocated(std::uint32_t cell) const
{
    return (allocBits[cell >> 6] >> (cell & 63)) & 1;
}

void
FreeListAllocator::Block::setAllocated(std::uint32_t cell, bool on)
{
    if (on)
        allocBits[cell >> 6] |= 1ULL << (cell & 63);
    else
        allocBits[cell >> 6] &= ~(1ULL << (cell & 63));
}

FreeListAllocator::FreeListAllocator(Heap &heap, const Space &space)
    : heap_(heap),
      space_(space.name, space.start,
             space.size & ~static_cast<std::uint64_t>(kBlockBytes - 1))
{
    availHead_.fill(-1);
    carveBlock_.fill(-1);
    blocks_.reserve(space_.size / kBlockBytes);
}

std::uint32_t
FreeListAllocator::classFor(std::uint32_t bytes)
{
    JAVELIN_ASSERT(bytes <= kMaxCellBytes,
                   "object too large for mark-sweep space: ", bytes);
    for (std::uint32_t k = 0; k < kNumClasses; ++k)
        if (kSizeClasses[k] >= bytes)
            return k;
    JAVELIN_PANIC("unreachable");
}

void
FreeListAllocator::availPush(std::uint32_t k, std::uint32_t idx)
{
    Block &b = blocks_[idx];
    JAVELIN_ASSERT(!b.inAvail, "block already on the avail list");
    b.availPrev = -1;
    b.availNext = availHead_[k];
    if (availHead_[k] >= 0)
        blocks_[static_cast<std::size_t>(availHead_[k])].availPrev =
            static_cast<std::int32_t>(idx);
    availHead_[k] = static_cast<std::int32_t>(idx);
    b.inAvail = true;
}

void
FreeListAllocator::availRemove(std::uint32_t k, std::uint32_t idx)
{
    Block &b = blocks_[idx];
    JAVELIN_ASSERT(b.inAvail, "block not on the avail list");
    if (b.availPrev >= 0)
        blocks_[static_cast<std::size_t>(b.availPrev)].availNext =
            b.availNext;
    else
        availHead_[k] = b.availNext;
    if (b.availNext >= 0)
        blocks_[static_cast<std::size_t>(b.availNext)].availPrev =
            b.availPrev;
    b.availNext = -1;
    b.availPrev = -1;
    b.inAvail = false;
}

FreeListAllocator::Block *
FreeListAllocator::newBlock(std::uint32_t size_class)
{
    // Prefer a retired (fully-free) block over virgin space: this is
    // the cross-class reuse the old always-bump policy lacked.
    Block *b = nullptr;
    if (!virginBlocks_.empty()) {
        const std::uint32_t idx = virginBlocks_.back();
        virginBlocks_.pop_back();
        b = &blocks_[idx];
        JAVELIN_ASSERT(b->virgin && b->liveCells == 0,
                       "non-virgin block in the virgin pool");
        b->virgin = false;
    } else {
        const Address start = space_.bump(kBlockBytes);
        if (start == kNull)
            return nullptr;
        blocks_.emplace_back();
        b = &blocks_.back();
        b->start = start;
    }
    b->sizeClass = size_class;
    b->cellBytes = kSizeClasses[size_class];
    b->cellCount = kBlockBytes / b->cellBytes;
    b->bumpCells = 0;
    b->freeHead = kNull;
    b->freeCells = 0;
    b->allocBits.assign((b->cellCount + 63) / 64, 0);
    return b;
}

FreeListAllocator::Block *
FreeListAllocator::blockOf(Address addr)
{
    JAVELIN_ASSERT(space_.contains(addr), "address outside MS space");
    const auto idx = (addr - space_.start) / kBlockBytes;
    JAVELIN_ASSERT(idx < blocks_.size(), "address in uncarved block");
    return &blocks_[idx];
}

const FreeListAllocator::Block *
FreeListAllocator::blockOf(Address addr) const
{
    return const_cast<FreeListAllocator *>(this)->blockOf(addr);
}

Address
FreeListAllocator::alloc(std::uint32_t bytes, std::uint32_t *traffic_loads)
{
    const std::uint32_t k = classFor(bytes);
    *traffic_loads = 0;

    // Fast path: pop the head block's free list (one heap load for the
    // link, exactly as the old single per-class list charged).
    if (availHead_[k] >= 0) {
        const auto idx = static_cast<std::uint32_t>(availHead_[k]);
        Block &b = blocks_[idx];
        const Address addr = b.freeHead;
        b.freeHead = heap_.read64(addr);
        *traffic_loads = 1;
        const std::uint32_t cell =
            static_cast<std::uint32_t>((addr - b.start) / b.cellBytes);
        JAVELIN_ASSERT(!b.allocated(cell), "double allocation");
        b.setAllocated(cell, true);
        ++b.liveCells;
        --b.freeCells;
        if (b.freeCells == 0)
            availRemove(k, idx);
        usedBytes_ += b.cellBytes;
        freeListedBytes_ -= b.cellBytes;
        return addr;
    }

    // Carve from the block currently being bump-filled for this class.
    if (carveBlock_[k] >= 0) {
        Block &b = blocks_[static_cast<std::size_t>(carveBlock_[k])];
        if (b.bumpCells < b.cellCount) {
            const Address addr = b.start + static_cast<Address>(
                b.bumpCells) * b.cellBytes;
            b.setAllocated(b.bumpCells, true);
            ++b.bumpCells;
            ++b.liveCells;
            usedBytes_ += b.cellBytes;
            return addr;
        }
        carveBlock_[k] = -1;
    }

    // Grab a block: a retired one if available, else bump the space.
    Block *b = newBlock(k);
    if (!b)
        return kNull;
    carveBlock_[k] = static_cast<std::int32_t>(b - blocks_.data());
    const Address addr = b->start;
    b->setAllocated(0, true);
    b->bumpCells = 1;
    b->liveCells = 1;
    usedBytes_ += b->cellBytes;
    return addr;
}

void
FreeListAllocator::freeCell(Address addr)
{
    Block *b = blockOf(addr);
    const std::uint32_t cell =
        static_cast<std::uint32_t>((addr - b->start) / b->cellBytes);
    JAVELIN_ASSERT(b->allocated(cell), "freeing a free cell");
    b->setAllocated(cell, false);
    heap_.write64(addr, b->freeHead);
    b->freeHead = addr;
    ++b->freeCells;
    --b->liveCells;
    if (!b->inAvail)
        availPush(b->sizeClass,
                  static_cast<std::uint32_t>(b - blocks_.data()));
    usedBytes_ -= b->cellBytes;
    freeListedBytes_ += b->cellBytes;
}

bool
FreeListAllocator::isAllocatedCell(Address addr) const
{
    if (!space_.contains(addr))
        return false;
    const auto idx = (addr - space_.start) / kBlockBytes;
    if (idx >= blocks_.size())
        return false;
    const Block &b = blocks_[idx];
    if ((addr - b.start) % b.cellBytes != 0)
        return false;
    const std::uint32_t cell =
        static_cast<std::uint32_t>((addr - b.start) / b.cellBytes);
    return b.allocated(cell);
}

bool
FreeListAllocator::isWithinAllocatedCell(Address addr) const
{
    if (!space_.contains(addr))
        return false;
    const auto idx = (addr - space_.start) / kBlockBytes;
    if (idx >= blocks_.size())
        return false;
    const Block &b = blocks_[idx];
    const std::uint32_t cell =
        static_cast<std::uint32_t>((addr - b.start) / b.cellBytes);
    return b.allocated(cell);
}

void
FreeListAllocator::beginSweep()
{
    // Nothing to rebuild: per-block free lists persist across sweeps,
    // so cells freed in an earlier cycle and not yet reused stay
    // directly allocatable instead of leaking (the pre-virgin-pool
    // design cleared every list here and re-linked only the cells the
    // *current* sweep freed).
}

void
FreeListAllocator::endSweep()
{
    for (std::uint32_t idx = 0; idx < blocks_.size(); ++idx) {
        Block &b = blocks_[idx];
        if (b.virgin || b.liveCells != 0 || b.bumpCells == 0)
            continue;
        // Every carved cell is free: unhook the block and retire it.
        // The link stores the sweep issued for these cells were real
        // traffic; only host metadata is rewound here.
        if (b.inAvail)
            availRemove(b.sizeClass, idx);
        if (carveBlock_[b.sizeClass] ==
            static_cast<std::int32_t>(idx))
            carveBlock_[b.sizeClass] = -1;
        freeListedBytes_ -=
            static_cast<std::uint64_t>(b.freeCells) * b.cellBytes;
        b.freeCells = 0;
        b.freeHead = kNull;
        b.bumpCells = 0;
        b.virgin = true;
        virginBlocks_.push_back(idx);
    }
}

std::uint64_t
FreeListAllocator::freeBytes() const
{
    const std::uint64_t uncarved =
        space_.end() - (space_.start +
                        static_cast<Address>(blocks_.size()) * kBlockBytes);
    return uncarved + freeListedBytes_ +
           static_cast<std::uint64_t>(virginBlocks_.size()) * kBlockBytes;
}

std::uint32_t
FreeListAllocator::cellBytesAt(Address addr) const
{
    return blockOf(addr)->cellBytes;
}

} // namespace jvm
} // namespace javelin
