/**
 * @file
 * Object layout and timed heap access.
 *
 * Every object is laid out as a 16-byte header (class id, total size,
 * GC word, aux/array-length) followed by reference slots and then scalar
 * slots, each 8 bytes. Accessors come in two flavours: the default ones
 * charge the CPU model for the memory traffic (this is how JVM activity
 * turns into cache behaviour and ultimately power); the *Raw variants
 * move data without timing and exist for tests and invariant checkers.
 *
 * GC metadata uses the gcBits word; when an object has been moved, a
 * 64-bit forwarding pointer overwrites the first header word (the
 * from-space copy is dead at that point, exactly as in a real Cheney
 * collector).
 */

#ifndef JAVELIN_JVM_OBJECT_MODEL_HH
#define JAVELIN_JVM_OBJECT_MODEL_HH

#include <cstring>
#include <functional>

#include "jvm/heap.hh"
#include "jvm/program.hh"
#include "sim/cpu_model.hh"

namespace javelin {
namespace jvm {

/** GC bit assignments within the gcBits header word. */
enum GcBits : std::uint32_t
{
    kMarkBit = 1u << 0,
    kForwardedBit = 1u << 1,
    kLoggedBit = 1u << 2,     ///< object is in a remembered set
    kColorShift = 4,          ///< two-bit tri-colour field
    kColorMask = 3u << kColorShift,
};

/** Tri-colour states for the incremental collector. */
enum class Color : std::uint32_t { White = 0, Gray = 1, Black = 2 };

/** Header field offsets. */
constexpr std::uint32_t kClassIdOffset = 0;
constexpr std::uint32_t kSizeOffset = 4;
constexpr std::uint32_t kGcBitsOffset = 8;
constexpr std::uint32_t kAuxOffset = 12;

/**
 * Memoized decode of one object's header: the host pointer to its
 * bytes plus the layout facts (class, size, slot counts) the GC
 * walkers re-derive constantly through classOfRaw/refCountRaw chains.
 * Valid until the object's first header line is rewritten (initObject,
 * copyObject destination, setForwarding) — ObjectModel invalidates its
 * memo at exactly those points. The mutable gcBits word is *not*
 * cached; read it through the heap.
 */
struct ObjectView
{
    Address obj = kNull;
    const std::uint8_t *ptr = nullptr;
    const ClassInfo *cls = nullptr;
    std::uint32_t size = 0;
    std::uint32_t refs = 0;
    std::uint32_t scalars = 0;

    /** Reference slot `slot` (untimed host read). */
    Address
    ref(std::uint32_t slot) const
    {
        std::uint64_t v;
        std::memcpy(&v, ptr + kHeaderBytes +
                            static_cast<std::size_t>(slot) * kSlotBytes,
                    sizeof(v));
        return v;
    }
};

/**
 * Object layout operations over a Heap, charging a CpuModel.
 */
class ObjectModel
{
  public:
    ObjectModel(Heap &heap, sim::CpuModel &cpu,
                const std::vector<ClassInfo> &classes);

    /** Total heap bytes for an instance of cls (array_len for arrays). */
    std::uint32_t objectBytes(const ClassInfo &cls,
                              std::uint32_t array_len) const;

    /**
     * Write a fresh header and zero the body. Charges header stores and
     * cache-line-granular zeroing traffic.
     */
    void initObject(Address obj, const ClassInfo &cls,
                    std::uint32_t total_bytes, std::uint32_t array_len);

    // --- charged accessors (drive the cache model) ---
    //
    // The slot accessors and the raw header decodes they ride on are
    // defined inline here: the interpreter's trace executor issues
    // millions of them per simulated second, and out-of-line they cost
    // a call/return around what is otherwise a few host loads plus the
    // (force-inlined) CpuModel charge.

    std::uint32_t
    loadGcBits(Address obj)
    {
        cpu_.load(obj + kGcBitsOffset);
        return heap_.read32(obj + kGcBitsOffset);
    }

    void
    storeGcBits(Address obj, std::uint32_t bits)
    {
        cpu_.store(obj + kGcBitsOffset);
        heap_.write32(obj + kGcBitsOffset, bits);
    }

    Address
    loadRef(Address obj, std::uint32_t slot)
    {
        const Address a = refSlotAddr(obj, slot);
        cpu_.load(a);
        return heap_.read64(a);
    }

    void
    storeRef(Address obj, std::uint32_t slot, Address value)
    {
        const Address a = refSlotAddr(obj, slot);
        cpu_.store(a);
        heap_.write64(a, value);
    }

    std::int64_t
    loadScalar(Address obj, std::uint32_t slot)
    {
        const Address a = scalarSlotAddr(obj, slot);
        cpu_.load(a);
        return static_cast<std::int64_t>(heap_.read64(a));
    }

    void
    storeScalar(Address obj, std::uint32_t slot, std::int64_t value)
    {
        const Address a = scalarSlotAddr(obj, slot);
        cpu_.store(a);
        heap_.write64(a, static_cast<std::uint64_t>(value));
    }

    /** Copy an object's bytes (charged per 16-byte chunk). */
    void copyObject(Address dst, Address src, std::uint32_t bytes);

    /** Install a forwarding pointer over the from-space header. */
    void setForwarding(Address obj, Address to);

    /** Follow a forwarding pointer (caller checked the bit). */
    Address loadForwarding(Address obj);

    // --- raw (untimed) accessors for host-side bookkeeping & tests ---

    std::uint32_t
    classIdRaw(Address obj) const
    {
        return heap_.read32(obj + kClassIdOffset);
    }
    std::uint32_t
    sizeRaw(Address obj) const
    {
        return heap_.read32(obj + kSizeOffset);
    }
    std::uint32_t
    gcBitsRaw(Address obj) const
    {
        return heap_.read32(obj + kGcBitsOffset);
    }
    void
    setGcBitsRaw(Address obj, std::uint32_t bits)
    {
        heap_.write32(obj + kGcBitsOffset, bits);
    }
    std::uint32_t
    auxRaw(Address obj) const
    {
        return heap_.read32(obj + kAuxOffset);
    }
    Address
    refRaw(Address obj, std::uint32_t slot) const
    {
        return heap_.read64(refSlotAddr(obj, slot));
    }
    std::int64_t
    scalarRaw(Address obj, std::uint32_t slot) const
    {
        return static_cast<std::int64_t>(
            heap_.read64(scalarSlotAddr(obj, slot)));
    }
    Address forwardingRaw(Address obj) const;
    bool
    isForwardedRaw(Address obj) const
    {
        return (gcBitsRaw(obj) & kForwardedBit) != 0;
    }

    /** Class of an object via its (raw) header. */
    const ClassInfo &
    classOfRaw(Address obj) const
    {
        const std::uint32_t id = classIdRaw(obj);
        JAVELIN_ASSERT(id < classes_.size(), "corrupt object header at ",
                       obj);
        return classes_[id];
    }

    /** Number of reference slots (raw header reads). */
    std::uint32_t
    refCountRaw(Address obj) const
    {
        const ClassInfo &cls = classOfRaw(obj);
        if (cls.isRefArray)
            return auxRaw(obj);
        if (cls.isScalarArray)
            return 0;
        return cls.refFields;
    }

    /** Number of scalar slots (raw header reads). */
    std::uint32_t scalarCountRaw(Address obj) const;

    /** Array length (raw). */
    std::uint32_t arrayLenRaw(Address obj) const { return auxRaw(obj); }

    /** Address of a reference slot. */
    Address
    refSlotAddr(Address obj, std::uint32_t slot) const
    {
        return obj + kHeaderBytes + slot * kSlotBytes;
    }

    /** Address of a scalar slot (scalars follow the reference slots). */
    Address
    scalarSlotAddr(Address obj, std::uint32_t slot) const
    {
        return obj + kHeaderBytes +
               (refCountRaw(obj) + slot) * kSlotBytes;
    }

    // --- memoized header decode (GC fast path, DESIGN.md §5e) ---

    /**
     * Dual-MRU memo over header decodes, the same discipline as the
     * sim::Cache line memo: slot 0 is the most recent decode, slot 1
     * the runner-up, a second hit swaps them. GC drain loops touch the
     * same few classes' layouts over and over; the memo collapses the
     * classIdRaw -> bounds-assert -> classes_[] -> aux chain to one
     * compare per repeat. Untimed — callers charge traffic themselves.
     * @pre obj is a live, initialized object (not kNull).
     */
    const ObjectView &
    view(Address obj)
    {
        if (view_[0].obj == obj) [[likely]]
            return view_[0];
        if (view_[1].obj == obj) {
            std::swap(view_[0], view_[1]);
            return view_[0];
        }
        return viewSlow(obj);
    }

    /** Drop any memoized decode of obj (its header is being rewritten). */
    void
    invalidateView(Address obj)
    {
        if (view_[0].obj == obj)
            view_[0] = ObjectView{};
        if (view_[1].obj == obj)
            view_[1] = ObjectView{};
    }

    /** Drop all memoized decodes (sweeps free cells wholesale). */
    void
    invalidateViews()
    {
        view_[0] = ObjectView{};
        view_[1] = ObjectView{};
    }

    Heap &heap() { return heap_; }
    const std::vector<ClassInfo> &classes() const { return classes_; }

  private:
    const ObjectView &viewSlow(Address obj);

    Heap &heap_;
    sim::CpuModel &cpu_;
    const std::vector<ClassInfo> &classes_;
    ObjectView view_[2];
};

} // namespace jvm
} // namespace javelin

#endif // JAVELIN_JVM_OBJECT_MODEL_HH
