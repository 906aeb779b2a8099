/**
 * @file
 * The simulated Java heap: a contiguous range of simulated addresses
 * backed by host memory, carved into Spaces by the collectors.
 *
 * The backing store is one private anonymous mapping. The kernel hands
 * it out as zero pages, so a fresh heap reads all-zero without boot
 * writing a byte of it: only pages the run touches become resident,
 * and destruction returns them to the OS instead of to a malloc arena
 * (which would keep a finished sweep shard's heap resident in its
 * worker thread). The mapping has no sanitizer redzones; the range
 * asserts below are its bounds check.
 *
 * Heap accessors here are *untimed* — they move bytes only. All cache
 * and cycle accounting is done by the callers (ObjectModel, allocators,
 * collectors) through the CpuModel, so the timing and the data paths
 * stay independently testable.
 */

#ifndef JAVELIN_JVM_HEAP_HH
#define JAVELIN_JVM_HEAP_HH

#include <cstdint>
#include <cstring>
#include <string>

#include "jvm/address.hh"
#include "util/logging.hh"

namespace javelin {
namespace jvm {

/**
 * Backing store for the simulated heap. Not copyable or movable:
 * ObjectModel, GcEnv and the collectors hold references to it.
 */
class Heap
{
  public:
    /** Map `bytes` of zeroed memory; throws std::bad_alloc when the
     *  mapping fails. */
    explicit Heap(std::uint64_t bytes);
    ~Heap();

    Heap(const Heap &) = delete;
    Heap &operator=(const Heap &) = delete;

    Address base() const { return kHeapBase; }
    std::uint64_t size() const { return size_; }
    Address end() const { return kHeapBase + size_; }

    bool
    contains(Address addr) const
    {
        return addr >= kHeapBase && addr < end();
    }

    /** Host pointer for a simulated address. */
    std::uint8_t *
    ptr(Address addr)
    {
        JAVELIN_ASSERT(contains(addr), "heap access out of range: ", addr);
        return mem_ + (addr - kHeapBase);
    }

    const std::uint8_t *
    ptr(Address addr) const
    {
        JAVELIN_ASSERT(contains(addr), "heap access out of range: ", addr);
        return mem_ + (addr - kHeapBase);
    }

    std::uint64_t
    read64(Address addr) const
    {
        std::uint64_t v;
        std::memcpy(&v, ptr(addr), sizeof(v));
        return v;
    }

    void
    write64(Address addr, std::uint64_t v)
    {
        std::memcpy(ptr(addr), &v, sizeof(v));
    }

    std::uint32_t
    read32(Address addr) const
    {
        std::uint32_t v;
        std::memcpy(&v, ptr(addr), sizeof(v));
        return v;
    }

    void
    write32(Address addr, std::uint32_t v)
    {
        std::memcpy(ptr(addr), &v, sizeof(v));
    }

    /** Copy a block within the heap (regions must not overlap). */
    void
    copyBlock(Address dst, Address src, std::uint32_t bytes)
    {
        JAVELIN_ASSERT(dst + bytes <= end() && src + bytes <= end(),
                       "copyBlock out of range");
        std::memcpy(ptr(dst), ptr(src), bytes);
    }

    void
    zero(Address addr, std::uint32_t bytes)
    {
        JAVELIN_ASSERT(addr + bytes <= end(), "zero out of range");
        std::memset(ptr(addr), 0, bytes);
    }

  private:
    std::uint64_t size_;
    std::uint8_t *mem_ = nullptr;
};

/**
 * A contiguous region of the heap with an optional bump cursor.
 */
struct Space
{
    std::string name;
    Address start = 0;
    std::uint64_t size = 0;
    Address cursor = 0;

    Space() = default;
    Space(std::string n, Address s, std::uint64_t sz)
        : name(std::move(n)), start(s), size(sz), cursor(s)
    {
    }

    Address end() const { return start + size; }
    bool
    contains(Address addr) const
    {
        return addr >= start && addr < end();
    }
    std::uint64_t used() const { return cursor - start; }
    std::uint64_t freeBytes() const { return end() - cursor; }
    void reset() { cursor = start; }

    /** Bump-allocate; returns 0 if the space is exhausted. */
    Address
    bump(std::uint32_t bytes)
    {
        if (cursor + bytes > end())
            return kNull;
        const Address addr = cursor;
        cursor += bytes;
        return addr;
    }
};

} // namespace jvm
} // namespace javelin

#endif // JAVELIN_JVM_HEAP_HH
