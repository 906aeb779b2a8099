/**
 * @file
 * Static program representation: classes, methods, and the program
 * object as loaded from a workload builder. A Program is immutable at
 * run time; per-run method state (compilation tier, counters) lives in
 * the Jvm so one Program can be executed under many configurations.
 */

#ifndef JAVELIN_JVM_PROGRAM_HH
#define JAVELIN_JVM_PROGRAM_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "jvm/address.hh"
#include "jvm/bytecode.hh"

namespace javelin {
namespace jvm {

using ClassId = std::uint32_t;
using MethodId = std::uint32_t;

constexpr ClassId kNoClass = 0xffffffff;

/** Size of an object header in bytes: classId, size, gcBits, aux. */
constexpr std::uint32_t kHeaderBytes = 16;

/** Size of every field/element slot in bytes. */
constexpr std::uint32_t kSlotBytes = 8;

/**
 * One loaded (or loadable) class.
 */
struct ClassInfo
{
    ClassId id = 0;
    std::string name;
    /** Number of reference fields (laid out first after the header). */
    std::uint32_t refFields = 0;
    /** Number of scalar (64-bit) fields, after the reference fields. */
    std::uint32_t scalarFields = 0;
    bool isRefArray = false;
    bool isScalarArray = false;
    ClassId super = kNoClass;
    /** Metadata bytes the class loader walks when loading this class. */
    std::uint32_t metadataBytes = 1024;
    /** Constant-pool entries resolved at load time. */
    std::uint32_t constantPoolEntries = 24;
    /** Classes eagerly resolved (and possibly loaded) with this one. */
    std::vector<ClassId> referencedClasses;
    /** Assigned by Program::layout(). */
    Address metadataAddr = 0;

    bool isArray() const { return isRefArray || isScalarArray; }

    /** Heap bytes of one (non-array) instance, header included. */
    std::uint32_t
    instanceBytes() const
    {
        return kHeaderBytes + (refFields + scalarFields) * kSlotBytes;
    }

    /** Heap bytes of an array instance of the given length. */
    static std::uint32_t
    arrayBytes(std::uint32_t length)
    {
        return kHeaderBytes + length * kSlotBytes;
    }
};

/**
 * One method: code plus register-file shape.
 *
 * Arguments arrive in the low registers of each file: integer arguments
 * in i[0..nIntArgs), reference arguments in r[0..nRefArgs).
 */
struct MethodInfo
{
    MethodId id = 0;
    std::string name;
    ClassId holder = kNoClass;
    Code code;
    std::uint16_t nIntRegs = 8;
    std::uint16_t nRefRegs = 4;
    std::uint16_t nIntArgs = 0;
    std::uint16_t nRefArgs = 0;
    /** Location of the bytecode in the metadata region (set by layout). */
    Address bytecodeAddr = 0;

    /**
     * Method-granular superinstruction tables, built once by
     * Program::layout() and shared by every engine executing this
     * program (DESIGN.md §5g). All are program-static: the foldable-run
     * structure depends only on the code, and the per-tier micro-op
     * transform maps zero to zero, so prefix sums per tier are fixed at
     * load time no matter when methods are retiered.
     */
    /** Per-pc length of the maximal foldable run starting there
     *  (0 = the op is not foldable), saturated at 0xFFFF. */
    std::vector<std::uint16_t> runLen;
    /** Prefix sums (size code.size() + 1) of each op's FP result stall
     *  in half-cycles: a segment [a, b) stalls
     *  0.5 * (fpStallHalfPrefix[b] - fpStallHalfPrefix[a]) cycles,
     *  exact in binary since every stall is a multiple of 0.5. */
    std::vector<std::uint32_t> fpStallHalfPrefix;
    /** Prefix sums (size code.size() + 1) of tier-transformed semantic
     *  micro-ops, indexed by static_cast<unsigned>(Tier). */
    std::array<std::vector<std::uint32_t>, 4> semUopPrefix;
};

/**
 * A complete program.
 */
struct Program
{
    std::string name = "program";
    std::vector<ClassInfo> classes;
    std::vector<MethodInfo> methods;
    MethodId entry = 0;
    /** Number of static reference slots (GC roots). */
    std::uint32_t numStatics = 0;
    /**
     * The first bootClassCount classes are system/boot classes: merged
     * into the VM image under Jikes, loaded lazily at startup by Kaffe.
     */
    std::uint32_t bootClassCount = 0;
    /** Seed for the Rand opcode's deterministic stream. */
    std::uint64_t randSeed = 42;

    const ClassInfo &
    classOf(ClassId id) const
    {
        return classes.at(id);
    }

    /** Assign metadata/bytecode addresses. Must be called once. */
    void layout();

    /**
     * Static verification: branch targets, register indices, call arity,
     * class references. Returns a list of error strings (empty = valid).
     */
    std::vector<std::string> verify() const;
};

} // namespace jvm
} // namespace javelin

#endif // JAVELIN_JVM_PROGRAM_HH
