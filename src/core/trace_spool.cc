#include "core/trace_spool.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "util/logging.hh"

namespace javelin {
namespace core {

using namespace tracefmt;

// ---------------------------------------------------------------------
// writeTrace
// ---------------------------------------------------------------------

namespace {

void
encodeRecord(const PowerSample &s, unsigned char *out)
{
    encodePowerRecord(s, out);
}

void
encodeRecord(const PerfSample &s, unsigned char *out)
{
    encodePerfRecord(s, out);
}

/** pwrite all `len` bytes at `offset`, through EINTR and short writes. */
void
pwriteAll(int fd, const std::string &path, const unsigned char *data,
          std::size_t len, std::uint64_t offset)
{
    std::size_t done = 0;
    while (done < len) {
        const ssize_t n = ::pwrite(fd, data + done, len - done,
                                   static_cast<off_t>(offset + done));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throw TraceError("trace spool: write to ", path,
                             " failed: ", std::strerror(errno));
        }
        done += static_cast<std::size_t>(n);
    }
}

template <typename Trace>
void
writeBlocks(const std::string &path, const Trace &trace, RecordKind kind,
            std::size_t blockBytes)
{
    const std::size_t recBytes = recordBytes(kind);
    const std::size_t frameBytes = kBlockHeaderBytes + kBlockFooterBytes;
    const std::size_t perBlock = std::max<std::size_t>(
        blockBytes > frameBytes ? (blockBytes - frameBytes) / recBytes : 0,
        1);

    const int fd =
        ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC, 0644);
    if (fd < 0)
        throw TraceError("trace spool: cannot create ", path, ": ",
                         std::strerror(errno));
    try {
        unsigned char header[kFileHeaderBytes];
        encodeFileHeader(kind, header);
        pwriteAll(fd, path, header, kFileHeaderBytes, 0);
        std::uint64_t offset = kFileHeaderBytes;

        std::vector<unsigned char> block(
            frameBytes + std::min(perBlock, trace.size()) * recBytes);
        for (std::size_t first = 0; first < trace.size(); first += perBlock) {
            const std::size_t count = std::min(perBlock, trace.size() - first);
            BlockFooter footer;
            footer.firstTick = footer.lastTick = trace[first].tick;
            footer.recordCount = static_cast<std::uint32_t>(count);
            unsigned char *rec = block.data() + kBlockHeaderBytes;
            for (std::size_t i = first; i < first + count; ++i) {
                encodeRecord(trace[i], rec);
                rec += recBytes;
                footer.firstTick = std::min(footer.firstTick, trace[i].tick);
                footer.lastTick = std::max(footer.lastTick, trace[i].tick);
                footer.componentMask |=
                    1u << static_cast<std::uint32_t>(
                        componentIndex(trace[i].component));
            }
            const std::size_t payloadBytes = count * recBytes;
            encodeBlockHeader(static_cast<std::uint32_t>(payloadBytes),
                              block.data());
            footer.payloadCrc =
                crc32(block.data() + kBlockHeaderBytes, payloadBytes);
            encodeBlockFooter(footer, rec);
            pwriteAll(fd, path, block.data(), payloadBytes + frameBytes,
                      offset);
            offset += payloadBytes + frameBytes;
        }
    } catch (...) {
        ::close(fd);
        throw;
    }
    ::close(fd);
}

} // namespace

void
writeTrace(const std::string &path, const PowerTrace &trace,
           std::size_t blockBytes)
{
    writeBlocks(path, trace, RecordKind::Power, blockBytes);
}

void
writeTrace(const std::string &path, const PerfTrace &trace,
           std::size_t blockBytes)
{
    writeBlocks(path, trace, RecordKind::Perf, blockBytes);
}

// ---------------------------------------------------------------------
// TraceReader
// ---------------------------------------------------------------------

namespace {

/** pread exactly len bytes; false on EOF-short reads. */
bool
preadAll(int fd, unsigned char *out, std::size_t len,
         std::uint64_t offset, const std::string &path)
{
    std::size_t done = 0;
    while (done < len) {
        const ssize_t n = ::pread(fd, out + done, len - done,
                                  static_cast<off_t>(offset + done));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throw TraceError("trace reader: read of ", path, " failed: ",
                             std::strerror(errno));
        }
        if (n == 0)
            return false;
        done += static_cast<std::size_t>(n);
    }
    return true;
}

} // namespace

TraceReader::TraceReader(const std::string &path) : path_(path)
{
    fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd_ < 0)
        throw TraceError("trace reader: cannot open ", path, ": ",
                         std::strerror(errno));
    try {
        index();
    } catch (...) {
        ::close(fd_);
        throw;
    }
}

void
TraceReader::index()
{
    struct stat st;
    if (::fstat(fd_, &st) != 0)
        throw TraceError("trace reader: cannot stat ", path_);
    const std::uint64_t fileSize =
        static_cast<std::uint64_t>(st.st_size);

    if (fileSize < kFileHeaderBytes)
        throw TraceError(path_, ": too short for a javelin-trace file (",
                         fileSize, " bytes)");
    unsigned char header[kFileHeaderBytes];
    preadAll(fd_, header, kFileHeaderBytes, 0, path_);
    kind_ = decodeFileHeader(header, path_.c_str());
    recordBytes_ = tracefmt::recordBytes(kind_);

    // Block scan: hop header-to-header, validate footers, apply the
    // torn-tail rule (see trace_format.hh).
    std::uint64_t off = kFileHeaderBytes;
    while (off < fileSize) {
        const std::uint64_t remaining = fileSize - off;
        if (remaining < kBlockHeaderBytes) {
            torn_ = true; // tear inside a block header
            break;
        }
        unsigned char bh[kBlockHeaderBytes];
        preadAll(fd_, bh, kBlockHeaderBytes, off, path_);
        if (getU32(bh) != kBlockMagic)
            throw TraceError(path_, ": corrupt block header at offset ", off,
                             " (bad magic)");
        const std::uint64_t payloadBytes = getU32(bh + 4);
        if (payloadBytes == 0 || payloadBytes % recordBytes_ != 0)
            throw TraceError(path_, ": corrupt block header at offset ", off,
                             " (payload length ", payloadBytes, ")");
        const std::uint64_t blockEnd =
            off + kBlockHeaderBytes + payloadBytes + kBlockFooterBytes;
        if (blockEnd > fileSize) {
            torn_ = true; // tear inside payload or footer
            break;
        }

        unsigned char fb[kBlockFooterBytes];
        preadAll(fd_, fb, kBlockFooterBytes,
                 off + kBlockHeaderBytes + payloadBytes, path_);
        BlockFooter footer;
        const bool footerOk =
            decodeBlockFooter(fb, footer) &&
            footer.recordCount * recordBytes_ == payloadBytes &&
            footer.firstTick <= footer.lastTick;
        if (!footerOk) {
            if (blockEnd == fileSize) {
                torn_ = true; // corrupt final block: drop it
                break;
            }
            throw TraceError(path_, ": corrupt block footer at offset ",
                             off + kBlockHeaderBytes + payloadBytes,
                             " (not at the end of the file)");
        }

        BlockInfo info;
        info.offset = off;
        info.recordCount = footer.recordCount;
        info.firstTick = footer.firstTick;
        info.lastTick = footer.lastTick;
        info.componentMask = footer.componentMask;
        blocks_.push_back(info);
        off = blockEnd;
    }
    intactBytes_ = blocks_.empty()
                       ? kFileHeaderBytes
                       : blocks_.back().offset + kBlockHeaderBytes +
                             blocks_.back().recordCount * recordBytes_ +
                             kBlockFooterBytes;
}

TraceReader::~TraceReader()
{
    if (fd_ >= 0)
        ::close(fd_);
}

std::uint64_t
TraceReader::recordCount() const
{
    std::uint64_t n = 0;
    for (const auto &b : blocks_)
        n += b.recordCount;
    return n;
}

std::vector<unsigned char>
TraceReader::blockPayload(const BlockInfo &b) const
{
    const std::size_t payloadBytes = b.recordCount * recordBytes_;
    std::vector<unsigned char> payload(payloadBytes);
    preadAll(fd_, payload.data(), payloadBytes,
             b.offset + kBlockHeaderBytes, path_);

    unsigned char fb[kBlockFooterBytes];
    preadAll(fd_, fb, kBlockFooterBytes,
             b.offset + kBlockHeaderBytes + payloadBytes, path_);
    BlockFooter footer;
    if (!decodeBlockFooter(fb, footer) ||
        crc32(payload.data(), payloadBytes) != footer.payloadCrc)
        throw TraceError(path_, ": block payload CRC mismatch at offset ",
                         b.offset);
    return payload;
}

PowerTrace
TraceReader::readPower() const
{
    return readPowerRange(0, ~static_cast<Tick>(0));
}

PerfTrace
TraceReader::readPerf() const
{
    return readPerfRange(0, ~static_cast<Tick>(0));
}

PowerTrace
TraceReader::readPowerRange(Tick fromTick, Tick toTick) const
{
    JAVELIN_ASSERT(kind_ == RecordKind::Power,
                   "power read on a perf trace");
    PowerTrace out;
    for (const auto &b : blocks_) {
        if (b.lastTick < fromTick || b.firstTick > toTick)
            continue; // index seek: block cannot intersect the range
        const auto payload = blockPayload(b);
        for (std::uint32_t i = 0; i < b.recordCount; ++i) {
            const unsigned char *rec =
                payload.data() + i * kPowerRecordBytes;
            const Tick t = recordTick(rec);
            if (t < fromTick || t > toTick)
                continue;
            out.push_back(decodePowerRecord(rec));
        }
    }
    return out;
}

PerfTrace
TraceReader::readPerfRange(Tick fromTick, Tick toTick) const
{
    JAVELIN_ASSERT(kind_ == RecordKind::Perf,
                   "perf read on a power trace");
    PerfTrace out;
    for (const auto &b : blocks_) {
        if (b.lastTick < fromTick || b.firstTick > toTick)
            continue;
        const auto payload = blockPayload(b);
        for (std::uint32_t i = 0; i < b.recordCount; ++i) {
            const unsigned char *rec =
                payload.data() + i * kPerfRecordBytes;
            const Tick t = recordTick(rec);
            if (t < fromTick || t > toTick)
                continue;
            out.push_back(decodePerfRecord(rec));
        }
    }
    return out;
}

} // namespace core
} // namespace javelin
