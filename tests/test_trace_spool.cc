/**
 * @file
 * Tests for core::writeTrace and the javelin-trace-v1 binary format:
 * the CRC-32 against its bitwise definition, bit-identical
 * written-vs-in-memory round trips (differential fuzz across block
 * sizes, with the sealing rule checked block by block), the
 * header-only empty trace, range reads, torn-tail recovery, mid-file
 * corruption refusal and failed writes. Every failure is a TraceError,
 * and nothing that throws leaves its file open.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

#include "core/trace_format.hh"
#include "core/trace_spool.hh"
#include "scratch_dir.hh"

using namespace javelin;
using namespace javelin::core;

namespace {

namespace fs = std::filesystem;

/**
 * Deterministic synthetic samples. The power shapes are
 * non-terminating binary fractions, so equality below is only
 * satisfiable by a bit-exact round trip.
 */
PowerSample
synthPower(std::uint64_t i)
{
    PowerSample s;
    s.tick = (i + 1) * 40 * kTicksPerMicro;
    s.windowTicks = i % 37 == 0 ? 0 : 40 * kTicksPerMicro;
    s.cpuWatts = 2.0 + static_cast<double>(i % 997) / 997.0;
    s.memWatts = 0.3 + static_cast<double>(i % 101) / 303.0;
    s.component = static_cast<ComponentId>(i % kNumComponents);
    return s;
}

PerfSample
synthPerf(std::uint64_t i)
{
    PerfSample s;
    s.tick = (i + 1) * kTicksPerMilli;
    s.component = static_cast<ComponentId>((i * 3) % kNumComponents);
    s.delta.cycles = 1000 + i % 400;
    s.delta.instructions = 700 + i % 350;
    s.delta.stallCycles = i % 90;
    s.delta.branches = 120 + i % 60;
    s.delta.branchMispredicts = i % 7;
    s.delta.l1iAccesses = 650 + i % 100;
    s.delta.l1iMisses = i % 11;
    s.delta.l1dAccesses = 300 + i % 200;
    s.delta.l1dMisses = i % 23;
    s.delta.l2Accesses = i % 34;
    s.delta.l2Misses = i % 5;
    s.delta.l2Probes = i % 3;
    s.delta.dramAccesses = i % 5;
    s.delta.dramWritebacks = i % 2;
    return s;
}

void
expectPowerEq(const PowerTrace &a, const PowerTrace &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].tick, b[i].tick) << "sample " << i;
        ASSERT_EQ(a[i].windowTicks, b[i].windowTicks) << "sample " << i;
        // Exact (bit-identical) double comparison, deliberately.
        ASSERT_EQ(a[i].cpuWatts, b[i].cpuWatts) << "sample " << i;
        ASSERT_EQ(a[i].memWatts, b[i].memWatts) << "sample " << i;
        ASSERT_EQ(a[i].component, b[i].component) << "sample " << i;
    }
}

void
expectPerfEq(const PerfTrace &a, const PerfTrace &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].tick, b[i].tick) << "sample " << i;
        ASSERT_EQ(a[i].component, b[i].component) << "sample " << i;
        const auto &x = a[i].delta;
        const auto &y = b[i].delta;
        ASSERT_EQ(x.cycles, y.cycles) << "sample " << i;
        ASSERT_EQ(x.instructions, y.instructions) << "sample " << i;
        ASSERT_EQ(x.stallCycles, y.stallCycles) << "sample " << i;
        ASSERT_EQ(x.branches, y.branches) << "sample " << i;
        ASSERT_EQ(x.branchMispredicts, y.branchMispredicts)
            << "sample " << i;
        ASSERT_EQ(x.l1iAccesses, y.l1iAccesses) << "sample " << i;
        ASSERT_EQ(x.l1iMisses, y.l1iMisses) << "sample " << i;
        ASSERT_EQ(x.l1dAccesses, y.l1dAccesses) << "sample " << i;
        ASSERT_EQ(x.l1dMisses, y.l1dMisses) << "sample " << i;
        ASSERT_EQ(x.l2Accesses, y.l2Accesses) << "sample " << i;
        ASSERT_EQ(x.l2Misses, y.l2Misses) << "sample " << i;
        ASSERT_EQ(x.l2Probes, y.l2Probes) << "sample " << i;
        ASSERT_EQ(x.dramAccesses, y.dramAccesses) << "sample " << i;
        ASSERT_EQ(x.dramWritebacks, y.dramWritebacks)
            << "sample " << i;
    }
}

/** Write `count` synthetic power samples and return them. */
PowerTrace
writePower(const fs::path &path, std::uint64_t count,
           std::size_t blockBytes = 1 << 20)
{
    PowerTrace trace;
    trace.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i)
        trace.push_back(synthPower(i));
    writeTrace(path.string(), trace, blockBytes);
    return trace;
}

/** Require `fn` to throw a TraceError whose message contains `text`. */
template <typename Fn>
void
expectTraceError(Fn &&fn, const std::string &text)
{
    try {
        fn();
        ADD_FAILURE() << "no TraceError";
    } catch (const TraceError &e) {
        EXPECT_PRED_FORMAT2(testing::IsSubstring, text, e.what());
    }
}

/** This process's open file descriptors. */
std::size_t
openFds()
{
    return static_cast<std::size_t>(std::distance(
        fs::directory_iterator("/proc/self/fd"), fs::directory_iterator()));
}

/** CRC-32 one bit at a time: the definition the tables must match. */
std::uint32_t
bitwiseCrc32(const unsigned char *p, std::size_t len, std::uint32_t seed)
{
    std::uint32_t c = ~seed;
    for (std::size_t i = 0; i < len; ++i) {
        c ^= p[i];
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    return ~c;
}

} // namespace

TEST(TraceFormat, Crc32MatchesBitwiseDefinition)
{
    // The standard check value, then every length up to 128 bytes from
    // each of eight start offsets, unseeded and seeded, so every tail
    // length follows some number of sliced eight-byte steps.
    EXPECT_EQ(tracefmt::crc32("123456789", 9), 0xCBF43926u);
    std::vector<unsigned char> buf(128);
    for (std::size_t i = 0; i < buf.size(); ++i)
        buf[i] = static_cast<unsigned char>(i * 131 + (i >> 3) + 7);
    for (std::size_t off = 0; off < 8; ++off) {
        for (std::size_t len = 0; off + len <= buf.size(); ++len) {
            const unsigned char *p = buf.data() + off;
            ASSERT_EQ(tracefmt::crc32(p, len), bitwiseCrc32(p, len, 0))
                << "offset " << off << " length " << len;
            ASSERT_EQ(tracefmt::crc32(p, len, 0x12345678u),
                      bitwiseCrc32(p, len, 0x12345678u))
                << "offset " << off << " length " << len;
        }
    }
    // Seeding with the CRC of a prefix chains to the CRC of the whole.
    EXPECT_EQ(tracefmt::crc32(buf.data() + 45, 83,
                              tracefmt::crc32(buf.data(), 45)),
              tracefmt::crc32(buf.data(), buf.size()));
}

TEST(TraceWrite, PowerRoundTripIsBitIdentical)
{
    const fs::path path = scratchDir("power_rt") / "t.jtrc";
    const PowerTrace oracle = writePower(path, 10000);

    TraceReader reader(path.string());
    EXPECT_EQ(reader.kind(), tracefmt::RecordKind::Power);
    EXPECT_FALSE(reader.torn());
    EXPECT_EQ(reader.recordCount(), oracle.size());
    expectPowerEq(reader.readPower(), oracle);
}

TEST(TraceWrite, PerfRoundTripIsBitIdentical)
{
    const fs::path path = scratchDir("perf_rt") / "t.jtrc";
    PerfTrace oracle;
    for (std::uint64_t i = 0; i < 20000; ++i)
        oracle.push_back(synthPerf(i));
    writeTrace(path.string(), oracle, 1 << 14);

    TraceReader reader(path.string());
    EXPECT_EQ(reader.kind(), tracefmt::RecordKind::Perf);
    EXPECT_GT(reader.blocks().size(), 1u);
    expectPerfEq(reader.readPerf(), oracle);
}

/**
 * The differential fuzz: one synthetic stream (> 1M samples over the
 * matrix) written at every block size from the minimum (one record
 * per block) to the 1 MiB default. Every decode must be bit-identical
 * to the in-memory oracle, and every block must follow the sealing
 * rule: (blockBytes - 8 - 32) / 40 records, at least one, fewer only
 * in the last block, each footer holding its records' tick range and
 * component mask.
 */
TEST(TraceWrite, DifferentialFuzzAcrossBlockSizes)
{
    const fs::path dir = scratchDir("fuzz");
    struct Case
    {
        std::size_t blockBytes;
        std::uint64_t samples;
        std::uint64_t perBlock;
    };
    const Case cases[] = {
        {1, 20000, 1},         // smaller than one record's frame
        {80, 20000, 1},        // exactly one record's frame
        {256, 20000, 5},       // tiny blocks
        {1 << 10, 50000, 24},  //
        {1 << 12, 50000, 101}, //
        {1 << 16, 400000, 1637},
        {1 << 20, 600000, 26213}, // default-sized blocks, bulk volume
    };
    std::size_t n = 0;
    std::uint64_t total = 0;
    for (const auto &c : cases) {
        SCOPED_TRACE(testing::Message() << "block bytes " << c.blockBytes);
        const fs::path path = dir / ("f" + std::to_string(n++));
        const PowerTrace oracle = writePower(path, c.samples, c.blockBytes);
        total += c.samples;
        TraceReader reader(path.string());
        ASSERT_FALSE(reader.torn());
        expectPowerEq(reader.readPower(), oracle);

        const auto &blocks = reader.blocks();
        ASSERT_EQ(blocks.size(), (c.samples + c.perBlock - 1) / c.perBlock);
        std::uint64_t first = 0;
        for (const auto &b : blocks) {
            const std::uint64_t count =
                std::min(c.perBlock, c.samples - first);
            ASSERT_EQ(b.recordCount, count) << "block at " << b.offset;
            Tick lo = oracle[first].tick, hi = lo;
            std::uint32_t mask = 0;
            for (std::uint64_t i = first; i < first + count; ++i) {
                lo = std::min(lo, oracle[i].tick);
                hi = std::max(hi, oracle[i].tick);
                mask |= 1u << componentIndex(oracle[i].component);
            }
            ASSERT_EQ(b.firstTick, lo) << "block at " << b.offset;
            ASSERT_EQ(b.lastTick, hi) << "block at " << b.offset;
            ASSERT_EQ(b.componentMask, mask) << "block at " << b.offset;
            first += count;
        }
        EXPECT_EQ(fs::file_size(path), reader.intactBytes());
    }
    EXPECT_GE(total, 1000000u) << "fuzz volume fell below the 1M floor";
}

TEST(TraceWrite, EmptyTraceIsAHeaderOnlyFile)
{
    const fs::path dir = scratchDir("empty");
    writeTrace((dir / "power.jtrc").string(), PowerTrace());
    writeTrace((dir / "perf.jtrc").string(), PerfTrace());
    for (const char *name : {"power.jtrc", "perf.jtrc"}) {
        SCOPED_TRACE(name);
        EXPECT_EQ(fs::file_size(dir / name), tracefmt::kFileHeaderBytes);
        TraceReader reader((dir / name).string());
        EXPECT_FALSE(reader.torn());
        EXPECT_EQ(reader.blocks().size(), 0u);
        EXPECT_EQ(reader.recordCount(), 0u);
    }
    EXPECT_EQ(TraceReader((dir / "power.jtrc").string()).kind(),
              tracefmt::RecordKind::Power);
    EXPECT_TRUE(TraceReader((dir / "power.jtrc").string())
                    .readPower()
                    .empty());
    EXPECT_TRUE(
        TraceReader((dir / "perf.jtrc").string()).readPerf().empty());
}

TEST(TraceWrite, RangeReadsMatchFilteredFullRead)
{
    const fs::path path = scratchDir("range") / "t.jtrc";
    const PowerTrace oracle = writePower(path, 30000, 1 << 12);

    TraceReader reader(path.string());
    ASSERT_GT(reader.blocks().size(), 4u);
    const Tick from = oracle[10000].tick;
    const Tick to = oracle[12345].tick;
    PowerTrace expected;
    for (const auto &s : oracle)
        if (s.tick >= from && s.tick <= to)
            expected.push_back(s);
    expectPowerEq(reader.readPowerRange(from, to), expected);
    // Degenerate ranges.
    EXPECT_TRUE(reader.readPowerRange(1, 2).empty());
    expectPowerEq(reader.readPowerRange(0, ~Tick(0)), oracle);
}

TEST(TraceWrite, TornTailIsDroppedAtEveryTruncationPoint)
{
    const fs::path dir = scratchDir("torn");
    const fs::path path = dir / "t.jtrc";
    const PowerTrace oracle = writePower(path, 5000, 1 << 12);
    const std::vector<char> whole = readFile(path);

    std::vector<TraceReader::BlockInfo> blocks;
    {
        TraceReader reader(path.string());
        blocks = reader.blocks();
        ASSERT_GT(blocks.size(), 3u);
    }

    // Truncate inside the final block at several depths: header
    // prefix, payload, and mid-footer. The reader must recover
    // exactly the records of the preceding intact blocks.
    const auto &last = blocks.back();
    std::uint64_t intactRecords = 0;
    for (std::size_t b = 0; b + 1 < blocks.size(); ++b)
        intactRecords += blocks[b].recordCount;
    const std::uint64_t tailLen = whole.size() - last.offset;
    for (const std::uint64_t cut :
         {std::uint64_t(1), std::uint64_t(7), std::uint64_t(8),
          std::uint64_t(9), tailLen / 2, tailLen - 1}) {
        const fs::path cutPath = dir / ("cut" + std::to_string(cut));
        std::vector<char> bytes(whole.begin(),
                                whole.begin() +
                                    static_cast<long>(last.offset +
                                                      cut));
        writeFile(cutPath, bytes);
        TraceReader reader(cutPath.string());
        EXPECT_TRUE(reader.torn()) << "cut " << cut;
        EXPECT_EQ(reader.recordCount(), intactRecords)
            << "cut " << cut;
        EXPECT_EQ(reader.intactBytes(), last.offset) << "cut " << cut;
        PowerTrace expected(oracle.begin(),
                            oracle.begin() +
                                static_cast<long>(intactRecords));
        expectPowerEq(reader.readPower(), expected);
    }

    // Truncation exactly at a block boundary is not a tear at all.
    {
        const fs::path cleanPath = dir / "clean_cut";
        std::vector<char> bytes(whole.begin(),
                                whole.begin() +
                                    static_cast<long>(last.offset));
        writeFile(cleanPath, bytes);
        TraceReader reader(cleanPath.string());
        EXPECT_FALSE(reader.torn());
        EXPECT_EQ(reader.recordCount(), intactRecords);
    }
}

TEST(TraceWrite, MidFileCorruptionIsRefused)
{
    const fs::path dir = scratchDir("corrupt");
    const fs::path path = dir / "t.jtrc";
    writePower(path, 5000, 1 << 12);
    const std::vector<char> whole = readFile(path);
    std::vector<TraceReader::BlockInfo> blocks;
    {
        TraceReader reader(path.string());
        blocks = reader.blocks();
        ASSERT_GT(blocks.size(), 3u);
    }

    const std::uint64_t payload =
        blocks[1].offset + tracefmt::kBlockHeaderBytes;
    const struct
    {
        std::uint64_t offset;
        unsigned char flip;
        std::string error;
    } cases[] = {
        // A flipped byte in an early block's footer: structural failure
        // before the tail, caught while indexing.
        {payload + blocks[1].recordCount * tracefmt::kPowerRecordBytes,
         0x5A, "corrupt block footer"},
        // A flipped byte inside an early payload: footer shape is fine,
        // so indexing succeeds, but decoding trips the payload CRC.
        {payload + 5, 0x5A, "payload CRC"},
        // A scrambled block magic is corruption wherever it appears.
        {blocks[1].offset, 0xFF,
         "corrupt block header at offset " +
             std::to_string(blocks[1].offset) + " (bad magic)"},
        // A damaged file header never reads as an empty trace.
        {1, 0xFF, "not a javelin-trace file (bad magic)"},
    };
    const std::size_t fds = openFds();
    for (const auto &c : cases) {
        std::vector<char> bytes = whole;
        bytes[c.offset] ^= c.flip;
        const fs::path p = dir / "corrupt.jtrc";
        writeFile(p, bytes);
        expectTraceError([&] { TraceReader(p.string()).readPower(); },
                         c.error);
    }
    // No reader that threw left its file open.
    EXPECT_EQ(openFds(), fds);
}

/**
 * A write that fails throws TraceError and closes the file: the file
 * cannot be created (a directory holds the path), the header write
 * fails (/dev/full), or a block write fails. For the last, a forked
 * child caps its file size at the header plus two 4 KiB blocks
 * (32 + 2 x 4080 bytes), so the third block of a three-block trace
 * fails with EFBIG; SIGXFSZ is ignored so the write returns the error
 * instead of killing the process. What reached the file reads back as
 * its first two blocks.
 */
TEST(TraceWrite, FailedWriteThrowsAndClosesTheFile)
{
    const fs::path dir = scratchDir("failed");
    const PowerTrace one = {synthPower(0)};
    const std::size_t fds = openFds();
    fs::create_directories(dir / "blocked");
    expectTraceError(
        [&] { writeTrace((dir / "blocked").string(), one); },
        "trace spool: cannot create " + (dir / "blocked").string() +
            ": Is a directory");
    ASSERT_TRUE(fs::is_character_file("/dev/full"));
    expectTraceError([&] { writeTrace("/dev/full", one); },
                     "trace spool: write to /dev/full failed: No space");
    EXPECT_EQ(openFds(), fds);

    const std::uint64_t perBlock =
        (4096 - tracefmt::kBlockHeaderBytes - tracefmt::kBlockFooterBytes) /
        tracefmt::kPowerRecordBytes;
    PowerTrace trace;
    for (std::uint64_t i = 0; i < 3 * perBlock; ++i)
        trace.push_back(synthPower(i));
    const std::string capped = (dir / "capped.jtrc").string();
    EXPECT_EXIT(
        {
            std::signal(SIGXFSZ, SIG_IGN);
            rlimit limit;
            limit.rlim_cur = limit.rlim_max = 8192;
            ::setrlimit(RLIMIT_FSIZE, &limit);
            const std::size_t childFds = openFds();
            try {
                writeTrace(capped, trace, 4096);
            } catch (const TraceError &e) {
                std::fprintf(stderr, "%s\n", e.what());
                ::_exit(openFds() == childFds ? 1 : 4);
            }
            ::_exit(3);
        },
        testing::ExitedWithCode(1),
        "trace spool: write to .*capped.jtrc failed: File too large");
    TraceReader reader(capped);
    EXPECT_FALSE(reader.torn());
    EXPECT_EQ(reader.blocks().size(), 2u);
    expectPowerEq(reader.readPower(),
                  PowerTrace(trace.begin(),
                             trace.begin() +
                                 static_cast<long>(2 * perBlock)));
}
