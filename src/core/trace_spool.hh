/**
 * @file
 * Writing and reading javelin-trace-v1 files (DESIGN.md §10).
 *
 * writeTrace encodes a finished in-memory trace, once, after the run,
 * into the format of core/trace_format.hh: framed, CRC-stamped blocks,
 * each carrying a footer index of its tick range and component mask.
 * Every byte goes through one pwrite(2) loop that retries EINTR and
 * short writes, the single place a write-failure seam has to wrap. A
 * failed write throws TraceError and closes the file, which keeps
 * whatever reached it: a torn tail.
 *
 * TraceReader is the other half: it validates the file, builds the
 * block index from footers alone (no record decoding), recovers a
 * torn tail the way the job-engine journal does (drop the incomplete
 * final block, throw TraceError on corruption anywhere earlier), and
 * serves whole reads or tick-range reads that skip non-intersecting
 * blocks.
 */

#ifndef JAVELIN_CORE_TRACE_SPOOL_HH
#define JAVELIN_CORE_TRACE_SPOOL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/trace_format.hh"
#include "core/traces.hh"

namespace javelin {
namespace core {

/**
 * Write `trace` to `path` (created or truncated) as a javelin-trace-v1
 * file. A block holds (blockBytes - 8 - 32) / recordBytes records, its
 * frame included, and at least one; only the last block holds fewer.
 * An empty trace writes a header-only file. Throws TraceError when the
 * file cannot be created or written.
 */
void writeTrace(const std::string &path, const PowerTrace &trace,
                std::size_t blockBytes = 1 << 20);
void writeTrace(const std::string &path, const PerfTrace &trace,
                std::size_t blockBytes = 1 << 20);

/**
 * Reader/recovery side of javelin-trace-v1 files.
 */
class TraceReader
{
  public:
    /** One entry of the block index, straight from the footers. */
    struct BlockInfo
    {
        /** Byte offset of the block header in the file. */
        std::uint64_t offset = 0;
        std::uint32_t recordCount = 0;
        Tick firstTick = 0;
        Tick lastTick = 0;
        std::uint32_t componentMask = 0;
    };

    /**
     * Open and index a trace file. Throws TraceError if it cannot, or
     * on structural corruption anywhere before the final block; a torn
     * final block is dropped and reported via torn().
     */
    explicit TraceReader(const std::string &path);
    ~TraceReader();

    TraceReader(const TraceReader &) = delete;
    TraceReader &operator=(const TraceReader &) = delete;

    tracefmt::RecordKind kind() const { return kind_; }
    const std::vector<BlockInfo> &blocks() const { return blocks_; }
    /** True when an incomplete final block was dropped on open. */
    bool torn() const { return torn_; }
    /** Bytes of the file covered by intact blocks (incl. header). */
    std::uint64_t intactBytes() const { return intactBytes_; }
    std::uint64_t recordCount() const;

    /** Decode every record (payload CRCs verified per block). */
    PowerTrace readPower() const;
    PerfTrace readPerf() const;

    /**
     * Decode only records with tick in [fromTick, toTick], consulting
     * the block index to skip blocks that cannot intersect the range.
     */
    PowerTrace readPowerRange(Tick fromTick, Tick toTick) const;
    PerfTrace readPerfRange(Tick fromTick, Tick toTick) const;

  private:
    /** The constructor's work once the file is open. */
    void index();
    std::vector<unsigned char> blockPayload(const BlockInfo &b) const;

    std::string path_;
    int fd_ = -1;
    tracefmt::RecordKind kind_ = tracefmt::RecordKind::Power;
    std::size_t recordBytes_ = 0;
    std::vector<BlockInfo> blocks_;
    bool torn_ = false;
    std::uint64_t intactBytes_ = 0;
};

} // namespace core
} // namespace javelin

#endif // JAVELIN_CORE_TRACE_SPOOL_HH
