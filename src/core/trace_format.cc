#include "core/trace_format.hh"

#include <array>
#include <cstring>

#include "util/logging.hh"

namespace javelin {
namespace core {
namespace tracefmt {

std::size_t
recordBytes(RecordKind kind)
{
    switch (kind) {
      case RecordKind::Power:
        return kPowerRecordBytes;
      case RecordKind::Perf:
        return kPerfRecordBytes;
    }
    JAVELIN_PANIC("bad RecordKind ", static_cast<std::uint32_t>(kind));
}

namespace {

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

/**
 * Slicing-by-8 tables: t[0] is the bytewise table, and t[k][b] is the
 * CRC of byte b followed by k zero bytes, so one step folds eight
 * input bytes with eight independent lookups instead of a chain of
 * eight dependent ones.
 */
constexpr CrcTables
makeCrcTables()
{
    CrcTables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k)
        for (std::uint32_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    return t;
}

constexpr CrcTables kCrc = makeCrcTables();

} // namespace

std::uint32_t
crc32(const void *data, std::size_t len, std::uint32_t seed)
{
    const auto *p = static_cast<const unsigned char *>(data);
    std::uint32_t c = seed ^ 0xFFFFFFFFu;
    for (; len >= 8; p += 8, len -= 8) {
        c ^= getU32(p);
        c = kCrc[7][c & 0xFFu] ^ kCrc[6][(c >> 8) & 0xFFu] ^
            kCrc[5][(c >> 16) & 0xFFu] ^ kCrc[4][c >> 24] ^
            kCrc[3][p[4]] ^ kCrc[2][p[5]] ^ kCrc[1][p[6]] ^
            kCrc[0][p[7]];
    }
    for (; len != 0; ++p, --len)
        c = kCrc[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

void
putU32(unsigned char *p, std::uint32_t v)
{
    p[0] = static_cast<unsigned char>(v);
    p[1] = static_cast<unsigned char>(v >> 8);
    p[2] = static_cast<unsigned char>(v >> 16);
    p[3] = static_cast<unsigned char>(v >> 24);
}

void
putU64(unsigned char *p, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        p[i] = static_cast<unsigned char>(v >> (8 * i));
}

void
putF64(unsigned char *p, double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    putU64(p, bits);
}

std::uint32_t
getU32(const unsigned char *p)
{
    return static_cast<std::uint32_t>(p[0]) |
           static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 |
           static_cast<std::uint32_t>(p[3]) << 24;
}

std::uint64_t
getU64(const unsigned char *p)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

double
getF64(const unsigned char *p)
{
    const std::uint64_t bits = getU64(p);
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
}

void
encodeFileHeader(RecordKind kind, unsigned char *out)
{
    std::memcpy(out, kMagic, 8);
    putU32(out + 8, kVersion);
    putU32(out + 12, kEndianCheck);
    putU32(out + 16, static_cast<std::uint32_t>(kind));
    putU32(out + 20,
           static_cast<std::uint32_t>(recordBytes(kind)));
    putU32(out + 24, 0); // reserved
    putU32(out + 28, crc32(out, 28));
}

RecordKind
decodeFileHeader(const unsigned char *p, const char *pathForErrors)
{
    if (std::memcmp(p, kMagic, 8) != 0)
        throw TraceError(pathForErrors,
                         ": not a javelin-trace file (bad magic)");
    if (getU32(p + 28) != crc32(p, 28))
        throw TraceError(pathForErrors, ": file header CRC mismatch");
    if (getU32(p + 8) != kVersion)
        throw TraceError(pathForErrors, ": unsupported trace version ",
                         getU32(p + 8));
    if (getU32(p + 12) != kEndianCheck)
        throw TraceError(pathForErrors,
                         ": endianness marker mismatch (file written on an "
                         "incompatible host)");
    const std::uint32_t kindRaw = getU32(p + 16);
    if (kindRaw != static_cast<std::uint32_t>(RecordKind::Power) &&
        kindRaw != static_cast<std::uint32_t>(RecordKind::Perf))
        throw TraceError(pathForErrors, ": unknown record kind ", kindRaw);
    const auto kind = static_cast<RecordKind>(kindRaw);
    if (getU32(p + 20) != recordBytes(kind))
        throw TraceError(pathForErrors, ": record size ", getU32(p + 20),
                         " does not match kind (want ", recordBytes(kind),
                         ")");
    return kind;
}

void
encodeBlockHeader(std::uint32_t payloadBytes, unsigned char *out)
{
    putU32(out, kBlockMagic);
    putU32(out + 4, payloadBytes);
}

void
encodeBlockFooter(const BlockFooter &f, unsigned char *out)
{
    putU64(out, f.firstTick);
    putU64(out + 8, f.lastTick);
    putU32(out + 16, f.recordCount);
    putU32(out + 20, f.componentMask);
    putU32(out + 24, f.payloadCrc);
    putU32(out + 28, crc32(out, 28));
}

bool
decodeBlockFooter(const unsigned char *p, BlockFooter &out)
{
    if (getU32(p + 28) != crc32(p, 28))
        return false;
    out.firstTick = getU64(p);
    out.lastTick = getU64(p + 8);
    out.recordCount = getU32(p + 16);
    out.componentMask = getU32(p + 20);
    out.payloadCrc = getU32(p + 24);
    return true;
}

void
encodePowerRecord(const PowerSample &s, unsigned char *out)
{
    putU64(out, s.tick);
    putU64(out + 8, s.windowTicks);
    putF64(out + 16, s.cpuWatts);
    putF64(out + 24, s.memWatts);
    putU32(out + 32,
           static_cast<std::uint32_t>(componentIndex(s.component)));
    putU32(out + 36, 0); // pad
}

PowerSample
decodePowerRecord(const unsigned char *p)
{
    PowerSample s;
    s.tick = getU64(p);
    s.windowTicks = getU64(p + 8);
    s.cpuWatts = getF64(p + 16);
    s.memWatts = getF64(p + 24);
    s.component = static_cast<ComponentId>(getU32(p + 32));
    return s;
}

void
encodePerfRecord(const PerfSample &s, unsigned char *out)
{
    putU64(out, s.tick);
    putU32(out + 8,
           static_cast<std::uint32_t>(componentIndex(s.component)));
    putU32(out + 12, 0); // pad
    const auto &d = s.delta;
    const std::uint64_t fields[14] = {
        d.cycles,      d.instructions,     d.stallCycles,
        d.branches,    d.branchMispredicts, d.l1iAccesses,
        d.l1iMisses,   d.l1dAccesses,      d.l1dMisses,
        d.l2Accesses,  d.l2Misses,         d.l2Probes,
        d.dramAccesses, d.dramWritebacks,
    };
    for (int i = 0; i < 14; ++i)
        putU64(out + 16 + 8 * i, fields[i]);
}

PerfSample
decodePerfRecord(const unsigned char *p)
{
    PerfSample s;
    s.tick = getU64(p);
    s.component = static_cast<ComponentId>(getU32(p + 8));
    auto &d = s.delta;
    std::uint64_t fields[14];
    for (int i = 0; i < 14; ++i)
        fields[i] = getU64(p + 16 + 8 * i);
    d.cycles = fields[0];
    d.instructions = fields[1];
    d.stallCycles = fields[2];
    d.branches = fields[3];
    d.branchMispredicts = fields[4];
    d.l1iAccesses = fields[5];
    d.l1iMisses = fields[6];
    d.l1dAccesses = fields[7];
    d.l1dMisses = fields[8];
    d.l2Accesses = fields[9];
    d.l2Misses = fields[10];
    d.l2Probes = fields[11];
    d.dramAccesses = fields[12];
    d.dramWritebacks = fields[13];
    return s;
}

} // namespace tracefmt
} // namespace core
} // namespace javelin
