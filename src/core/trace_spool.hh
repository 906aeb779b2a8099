/**
 * @file
 * Block-buffered trace spooling (DESIGN.md §10).
 *
 * TraceSpool takes PowerSample/PerfSample appends on the measured
 * path and encodes them into one fixed-size block buffer. When the
 * next record would not fit, the append that brought it there seals
 * the block and writes it before going on, so capture memory is
 * bounded by that one buffer no matter how long the run is. A failed
 * write throws TraceError from the call that caused it and closes the
 * file. Blocks land on disk in the javelin-trace-v1 format
 * (core/trace_format.hh):
 * framed, CRC-stamped, each carrying a footer index of its tick range
 * and component mask.
 *
 * Every write goes through pwrite(2) (pwriteAll): one write path, the
 * single place a write-failure seam has to wrap.
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
 * Writer of javelin-trace-v1 files through one block buffer.
 */
class TraceSpool
{
  public:
    struct Config
    {
        std::string path;
        tracefmt::RecordKind kind = tracefmt::RecordKind::Power;
        /**
         * Capacity of the block buffer, frame overhead included; also
         * the on-disk block size. Clamped up so a block always holds
         * at least one record.
         */
        std::size_t bufferBytes = 1 << 20;
        /**
         * Fault injection (0 = off): the Nth block write is
         * deliberately torn — only half its bytes reach the file —
         * and SIGKILL is raised, leaving exactly the wreckage an
         * external kill mid-write would. Mirrors
         * JAVELIN_JOB_CRASH_AFTER; used by the CI kill-mid-spool
         * smoke and the torn-tail tests.
         */
        std::size_t crashAfterBlocks = 0;
    };

    explicit TraceSpool(Config config);
    ~TraceSpool();

    TraceSpool(const TraceSpool &) = delete;
    TraceSpool &operator=(const TraceSpool &) = delete;

    /** Append one power sample (kind must be Power). */
    void append(const PowerSample &s);
    /** Append one perf sample (kind must be Perf). */
    void append(const PerfSample &s);

    /**
     * Write the partial block and close the file, even when that write
     * throws. Idempotent; the destructor calls it and warns instead of
     * throwing. After close() the file is complete and readable.
     */
    void close();

    const std::string &path() const { return config_.path; }
    tracefmt::RecordKind kind() const { return config_.kind; }
    std::uint64_t recordsAppended() const { return recordsAppended_; }

    /** Blocks fully written to the file so far. */
    std::uint64_t blocksWritten() const { return blocksWritten_; }
    /** Bytes written to the file so far, header included. */
    std::uint64_t bytesWritten() const { return fileOffset_; }

  private:
    void appendEncoded(Tick tick, std::uint32_t componentBit,
                       const unsigned char *rec, std::size_t len);
    /** Seal the block being filled and write it; no-op when empty. */
    void writeBlock();
    void pwriteAll(const unsigned char *data, std::size_t len);

    Config config_;
    int fd_ = -1;
    std::uint64_t recordsAppended_ = 0;

    /** The block being filled; fill_ starts past its header. */
    std::vector<unsigned char> block_;
    std::size_t fill_ = 0;
    std::uint32_t recordCount_ = 0;
    Tick firstTick_ = 0;
    Tick lastTick_ = 0;
    std::uint32_t componentMask_ = 0;

    bool closed_ = false;
    std::uint64_t blocksWritten_ = 0;
    std::uint64_t fileOffset_ = 0;
};

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
