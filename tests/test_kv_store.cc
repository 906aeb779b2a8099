/**
 * @file
 * Tests for the batched paged KV store (util/kv_store.hh): request
 * merging per page, reopen round trips, update shadowing, extent
 * values, torn-page recovery, corruption refusal, and a randomized
 * differential fuzz against std::map across flush/reopen cycles.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <random>

#include "scratch_dir.hh"
#include "util/kv_store.hh"

using namespace javelin;

namespace {

namespace fs = std::filesystem;

} // namespace

TEST(KvStore, BatchedPutsMergeOntoOnePage)
{
    const fs::path dir = scratchDir("merge");
    KvStore store((dir / "s.kv").string());
    // 50 small entries (~30 bytes each) fit one 4 KiB page: the whole
    // batch must cost exactly one page write — that is the
    // simple_KV_store merging property the store exists for.
    for (int i = 0; i < 50; ++i)
        store.put("key" + std::to_string(i),
                  "value" + std::to_string(i * 7));
    EXPECT_EQ(store.pendingCount(), 50u);
    EXPECT_EQ(store.flush(), 1u);
    EXPECT_EQ(store.pendingCount(), 0u);
    EXPECT_EQ(store.pageCount(), 1u);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(store.get("key" + std::to_string(i)),
                  "value" + std::to_string(i * 7));
}

TEST(KvStore, ReopenRoundTripsEverything)
{
    const fs::path dir = scratchDir("reopen");
    const std::string path = (dir / "s.kv").string();
    {
        KvStore store(path);
        for (int i = 0; i < 300; ++i)
            store.put("k" + std::to_string(i),
                      std::string(static_cast<std::size_t>(i * 3),
                                  'x'));
        store.close();
    }
    KvStore store(path);
    EXPECT_EQ(store.keys().size(), 300u);
    for (int i = 0; i < 300; ++i)
        EXPECT_EQ(store.get("k" + std::to_string(i)),
                  std::string(static_cast<std::size_t>(i * 3), 'x'))
            << "key " << i;
    EXPECT_FALSE(store.get("absent").has_value());
}

TEST(KvStore, UpdatesShadowAndCompactReclaims)
{
    const fs::path dir = scratchDir("shadow");
    const std::string path = (dir / "s.kv").string();
    KvStore store(path);
    store.put("a", "first");
    store.put("b", "keep");
    store.flush();
    store.put("a", "second");
    store.flush();
    EXPECT_EQ(store.get("a"), "second");
    EXPECT_EQ(store.pageCount(), 2u);

    // Reopen: last occurrence in file order wins.
    store.close();
    {
        KvStore re(path);
        EXPECT_EQ(re.get("a"), "second");
        EXPECT_EQ(re.get("b"), "keep");

        re.compact();
        EXPECT_EQ(re.pageCount(), 1u);
        EXPECT_EQ(re.get("a"), "second");
        EXPECT_EQ(re.get("b"), "keep");
        re.close();
    }
    KvStore re2(path);
    EXPECT_EQ(re2.get("a"), "second");
    EXPECT_EQ(re2.get("b"), "keep");
}

TEST(KvStore, LargeValuesSpanExtents)
{
    const fs::path dir = scratchDir("extent");
    const std::string path = (dir / "s.kv").string();
    // A BENCH JSON is tens of KB; exercise around the page boundary
    // and well past it.
    std::map<std::string, std::string> values;
    std::mt19937_64 rng(42);
    for (const std::size_t len :
         {std::size_t(4076), std::size_t(4077), std::size_t(4085),
          std::size_t(8192), std::size_t(65536), std::size_t(200001)}) {
        std::string v(len, '\0');
        for (auto &c : v)
            c = static_cast<char>('A' + rng() % 26);
        values["len" + std::to_string(len)] = v;
    }
    {
        KvStore store(path);
        for (const auto &[k, v] : values)
            store.put(k, v);
        store.flush();
        for (const auto &[k, v] : values)
            EXPECT_EQ(store.get(k), v) << k;
        store.close();
    }
    KvStore store(path);
    for (const auto &[k, v] : values)
        EXPECT_EQ(store.get(k), v) << k;
    // Interleave a small update after the extents and reopen again.
    store.put("len8192", "tiny now");
    store.close();
    KvStore re(path);
    EXPECT_EQ(re.get("len8192"), "tiny now");
    EXPECT_EQ(re.get("len65536"), values["len65536"]);
}

TEST(KvStore, TornFinalPageIsDroppedOnOpen)
{
    const fs::path dir = scratchDir("torn");
    const std::string path = (dir / "s.kv").string();
    {
        KvStore store(path);
        store.put("stable", "value");
        store.flush();
        store.put("tail", "casualty");
        store.flush();
        store.close();
    }
    const std::vector<char> whole = readFile(path);
    ASSERT_EQ(whole.size(), 32u + 2 * KvStore::kPageBytes);

    // Truncate into the final page at several depths.
    for (const std::size_t cut :
         {std::size_t(1), KvStore::kPageBytes / 2,
          KvStore::kPageBytes - 1}) {
        std::vector<char> bytes(
            whole.begin(),
            whole.begin() +
                static_cast<long>(32 + KvStore::kPageBytes + cut));
        writeFile(path, bytes);
        KvStore store(path);
        EXPECT_EQ(store.get("stable"), "value") << "cut " << cut;
        EXPECT_FALSE(store.get("tail").has_value()) << "cut " << cut;
        // The torn tail was truncated away; appending works.
        store.put("tail", "rewritten");
        store.close();
        KvStore re(path);
        EXPECT_EQ(re.get("tail"), "rewritten") << "cut " << cut;
        EXPECT_EQ(re.get("stable"), "value") << "cut " << cut;
    }

    // A torn final extent (continuation pages missing) drops whole.
    {
        KvStore store(path);
        store.put("big", std::string(3 * KvStore::kPageBytes, 'z'));
        store.flush();
        store.close();
        const std::vector<char> full = readFile(path);
        std::vector<char> bytes(
            full.begin(),
            full.end() - static_cast<long>(KvStore::kPageBytes + 10));
        writeFile(path, bytes);
        KvStore re(path);
        EXPECT_FALSE(re.get("big").has_value());
        EXPECT_EQ(re.get("stable"), "value");
    }
}

TEST(KvStore, MidFileCorruptionThrows)
{
    const fs::path dir = scratchDir("corrupt");
    const std::string path = (dir / "s.kv").string();
    {
        KvStore store(path);
        store.put("one", "1");
        store.flush();
        store.put("two", "2");
        store.flush();
        store.put("three", "3");
        store.flush();
        store.close();
    }
    const std::vector<char> whole = readFile(path);
    ASSERT_EQ(whole.size(), 32u + 3 * KvStore::kPageBytes);

    // Flip a byte in the FIRST page: not the tail, must refuse.
    {
        std::vector<char> bytes = whole;
        bytes[32 + 100] ^= 0x5A;
        writeFile(path, bytes);
        EXPECT_THROW(KvStore store(path), KvError);
    }
    // Superblock damage is never recoverable.
    {
        std::vector<char> bytes = whole;
        bytes[2] ^= 0x5A;
        writeFile(path, bytes);
        EXPECT_THROW(KvStore store(path), KvError);
    }
    // Flip a byte in the LAST page: a torn tail, recovered.
    {
        std::vector<char> bytes = whole;
        bytes[32 + 2 * KvStore::kPageBytes + 100] ^= 0x5A;
        writeFile(path, bytes);
        KvStore store(path);
        EXPECT_EQ(store.get("one"), "1");
        EXPECT_EQ(store.get("two"), "2");
        EXPECT_FALSE(store.get("three").has_value());
    }
}

TEST(KvStore, PendingReadsSeeUnflushedValues)
{
    const fs::path dir = scratchDir("pending");
    KvStore store((dir / "s.kv").string());
    store.put("k", "v1");
    EXPECT_EQ(store.get("k"), "v1");
    EXPECT_TRUE(store.contains("k"));
    store.put("k", "v2"); // merged before paging
    EXPECT_EQ(store.get("k"), "v2");
    store.flush();
    EXPECT_EQ(store.get("k"), "v2");
    store.put("k", "v3");
    EXPECT_EQ(store.get("k"), "v3"); // pending wins over flushed
}

TEST(KvStore, RejectsEmptyAndOversizedKeys)
{
    const fs::path dir = scratchDir("badkeys");
    KvStore store((dir / "s.kv").string());
    EXPECT_THROW(store.put("", "v"), KvError);
    EXPECT_THROW(store.put(std::string(5000, 'k'), "v"), KvError);
}

/**
 * Randomized differential fuzz: random puts/updates (sizes straddling
 * the leaf/extent boundary) against a std::map oracle, with flushes
 * and full close/reopen cycles mixed in. Every key must read back
 * exactly at every stage.
 */
TEST(KvStore, DifferentialFuzzAgainstStdMap)
{
    const fs::path dir = scratchDir("fuzz");
    const std::string path = (dir / "s.kv").string();
    std::mt19937_64 rng(1234);
    std::map<std::string, std::string> oracle;

    auto store = std::make_unique<KvStore>(path);
    for (int step = 0; step < 2000; ++step) {
        const std::string key =
            "key" + std::to_string(rng() % 200);
        std::size_t len = rng() % 64;
        if (rng() % 10 == 0)
            len = 3000 + rng() % 4000; // straddle the extent boundary
        if (rng() % 50 == 0)
            len = 20000 + rng() % 20000;
        std::string value(len, '\0');
        for (auto &c : value)
            c = static_cast<char>('a' + rng() % 26);
        store->put(key, value);
        oracle[key] = value;

        if (rng() % 20 == 0)
            store->flush();
        if (rng() % 100 == 0) {
            store->close();
            store = std::make_unique<KvStore>(path);
        }
        if (rng() % 400 == 0)
            store->compact();
    }
    for (const auto &[k, v] : oracle)
        ASSERT_EQ(store->get(k), v) << k;
    store->close();
    KvStore re(path);
    ASSERT_EQ(re.keys().size(), oracle.size());
    for (const auto &[k, v] : oracle)
        ASSERT_EQ(re.get(k), v) << k;
}
