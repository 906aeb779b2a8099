#include "jvm/heap.hh"

#include <sys/mman.h>

#include <new>

#include "util/units.hh"

namespace javelin {
namespace jvm {

Heap::Heap(std::uint64_t bytes)
    : size_(bytes)
{
    JAVELIN_ASSERT(bytes >= 64 * kKiB, "heap too small: ", bytes);
    JAVELIN_ASSERT(bytes % 8 == 0, "heap size must be 8-byte aligned");
    void *mem = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (mem == MAP_FAILED)
        throw std::bad_alloc();
    mem_ = static_cast<std::uint8_t *>(mem);
}

Heap::~Heap()
{
    ::munmap(mem_, size_);
}

} // namespace jvm
} // namespace javelin
