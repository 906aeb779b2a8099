/**
 * @file
 * javelin-trace-v1: the compact binary on-disk format for measurement
 * traces (DESIGN.md §10).
 *
 * A trace file is a 32-byte file header followed by framed blocks.
 * Every multi-byte field is little-endian and encoded/decoded with
 * explicit byte shifts, so files are portable across hosts; doubles are
 * stored as their IEEE-754 bit patterns, so a spooled-then-read trace
 * is bit-identical to the in-memory trace it came from.
 *
 * Block frame:
 *
 *   [u32 blockMagic][u32 payloadBytes]          8-byte header
 *   [recordCount * recordBytes]                 payload
 *   [u64 firstTick][u64 lastTick]               32-byte footer index
 *   [u32 recordCount][u32 componentMask]
 *   [u32 payloadCrc][u32 footerCrc]
 *
 * The footer is the per-block index: a reader hops header-to-header
 * (the header gives the payload length) and consults only the footers
 * to answer "which blocks intersect tick range [a, b]" without
 * decoding a single record. componentMask is the OR of
 * (1 << componentIndex) over the block's records, so component-scoped
 * scans can skip blocks too.
 *
 * Torn-tail recovery rule (mirrors the javelin-journal-v1 rule that an
 * append-only file can only tear at its tail): a final block that is
 * incomplete — fewer bytes than a block header, a declared extent
 * running past EOF, or a CRC/shape check failing on the block that
 * ends exactly at EOF — is dropped and the intact prefix is returned.
 * The same defects anywhere *before* the final block mean real
 * corruption, never a tear, and readers refuse the file. A present
 * but wrong block magic is always corruption: an interrupted
 * sequential append truncates to a prefix, it does not scramble bytes
 * it already wrote.
 */

#ifndef JAVELIN_CORE_TRACE_FORMAT_HH
#define JAVELIN_CORE_TRACE_FORMAT_HH

#include <cstddef>
#include <cstdint>
#include <stdexcept>

#include "core/traces.hh"
#include "util/logging.hh"

namespace javelin {
namespace core {

/** A trace file that cannot be written, read or decoded. */
struct TraceError : std::runtime_error
{
    /** The message streams `first`, then each of `rest`. */
    template <typename... Rest>
    explicit TraceError(const std::string &first, const Rest &...rest)
        : std::runtime_error(detail::concat(first, rest...))
    {
    }
};

namespace tracefmt {

/** File magic: "JVLTRC1\0". */
constexpr unsigned char kMagic[8] = {'J', 'V', 'L', 'T',
                                     'R', 'C', '1', '\0'};
constexpr std::uint32_t kVersion = 1;
/** Stamped into the header so a byte-swapped reader fails loudly. */
constexpr std::uint32_t kEndianCheck = 0x01020304u;
/** Block frame magic: "JBLK" as little-endian u32. */
constexpr std::uint32_t kBlockMagic = 0x4B4C424Au;

constexpr std::size_t kFileHeaderBytes = 32;
constexpr std::size_t kBlockHeaderBytes = 8;
constexpr std::size_t kBlockFooterBytes = 32;

/** What one file's records are. */
enum class RecordKind : std::uint32_t
{
    Power = 1,
    Perf = 2,
};

/** tick, windowTicks, cpuWatts, memWatts, component, pad. */
constexpr std::size_t kPowerRecordBytes = 40;
/** tick, component, pad, then the 14 PerfCounters fields. */
constexpr std::size_t kPerfRecordBytes = 128;

/** Fixed record size for a kind. */
std::size_t recordBytes(RecordKind kind);

/** CRC-32 (IEEE 802.3, reflected 0xEDB88320), seedable for chaining. */
std::uint32_t crc32(const void *data, std::size_t len,
                    std::uint32_t seed = 0);

// --- little-endian primitives -----------------------------------------

void putU32(unsigned char *p, std::uint32_t v);
void putU64(unsigned char *p, std::uint64_t v);
void putF64(unsigned char *p, double v);
std::uint32_t getU32(const unsigned char *p);
std::uint64_t getU64(const unsigned char *p);
double getF64(const unsigned char *p);

// --- file header ------------------------------------------------------

/** Encode the 32-byte file header (CRC stamped last). */
void encodeFileHeader(RecordKind kind, unsigned char *out);

/**
 * Validate a file header. Returns the record kind; on any mismatch
 * (magic, version, endianness, record size, CRC) throws TraceError
 * naming the defect.
 */
RecordKind decodeFileHeader(const unsigned char *p,
                            const char *pathForErrors);

// --- block frame ------------------------------------------------------

/** The per-block footer index, as read back from a file. */
struct BlockFooter
{
    Tick firstTick = 0;
    Tick lastTick = 0;
    std::uint32_t recordCount = 0;
    /** OR of (1 << componentIndex) over the block's records. */
    std::uint32_t componentMask = 0;
    std::uint32_t payloadCrc = 0;
};

void encodeBlockHeader(std::uint32_t payloadBytes, unsigned char *out);

/**
 * Encode the footer; payloadCrc must already be computed over the
 * payload bytes. footerCrc is computed here over the first 28 footer
 * bytes.
 */
void encodeBlockFooter(const BlockFooter &f, unsigned char *out);

/** Decode + verify the footer's own CRC. Returns false on mismatch. */
bool decodeBlockFooter(const unsigned char *p, BlockFooter &out);

// --- records ----------------------------------------------------------

void encodePowerRecord(const PowerSample &s, unsigned char *out);
PowerSample decodePowerRecord(const unsigned char *p);
void encodePerfRecord(const PerfSample &s, unsigned char *out);
PerfSample decodePerfRecord(const unsigned char *p);

/** Tick of an encoded record (offset 0 in both layouts). */
inline Tick
recordTick(const unsigned char *p)
{
    return getU64(p);
}

} // namespace tracefmt
} // namespace core
} // namespace javelin

#endif // JAVELIN_CORE_TRACE_FORMAT_HH
