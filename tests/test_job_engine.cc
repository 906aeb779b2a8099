/**
 * @file
 * Fault-injection tests for the resumable job engine.
 *
 * The central property under test: a sweep that is killed mid-run and
 * resumed produces a report BYTE-identical to an uninterrupted run, at
 * any worker count, while re-executing only the shards missing from
 * the journal. Crashes are injected two ways — the in-process
 * Config::keepGoing kill switch (deterministic commit counts, no
 * process teardown) and the JAVELIN_JOB_CRASH_AFTER SIGKILL hook
 * exercised under gtest death tests (a real dead process whose
 * journal the parent then resumes).
 *
 * Journal robustness is covered directly on the file: torn final
 * records are dropped, corruption before the tail is refused, a
 * stale scenario hash is refused, duplicate shard records resolve
 * last-write-wins, and a seeded fuzz loop runs random kill points at
 * random worker counts until the sweep completes, asserting the
 * byte-identity and the exactly-once execution of every shard. A shard
 * whose real experiment throws (its trace spool cannot be created)
 * costs only itself.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <random>
#include <sstream>
#include <vector>

#include "harness/job_engine.hh"
#include "harness/scenario.hh"
#include "scratch_dir.hh"

using namespace javelin;
using namespace javelin::harness;

namespace {

namespace fs = std::filesystem;

/**
 * The test sweep: 2 benchmarks x 2 collectors x 3 heaps = 12 shards,
 * small enough for the fuzz loop, wide enough that partitions and
 * multi-worker runs interleave for real.
 */
Scenario
testScenario()
{
    Scenario s;
    s.name = "job-engine-test";
    s.benchmarks = {"_202_jess", "_209_db"};
    s.collectors = {jvm::CollectorKind::SemiSpace,
                    jvm::CollectorKind::GenMS};
    s.heapsMB = {32, 48, 64};
    return s;
}

/**
 * Synthetic executor: a pure deterministic function of the task's
 * (already shard-mixed) seed and configuration. The derived doubles
 * are non-terminating binary fractions (division by primes), so the
 * byte-identity assertions genuinely exercise the precision-17
 * round-trip of restored payloads, not just pretty decimals.
 */
ExperimentResult
syntheticResult(const SweepTask &task)
{
    std::uint64_t s = task.config.seed ^
                      (std::uint64_t(task.config.heapNominalMB) << 32);
    const auto next = [&s] {
        s ^= s >> 33;
        s *= 0xff51afd7ed558ccdULL;
        s ^= s >> 29;
        return s;
    };
    ExperimentResult res;
    res.config = task.config;
    res.benchmark = task.profile.name;
    res.run.startTick = 0;
    res.run.endTick = 1'000'000'000'000ULL + next() % 500'000'000'000ULL;
    res.run.bytecodesExecuted = 1'000'000 + next() % 9'000'000;
    res.run.gc.collections = next() % 23;
    res.attribution.totalCpuJoules = double(next() % 100000) / 7.0;
    res.attribution.totalMemJoules = double(next() % 100000) / 11.0;
    res.attribution.totalSeconds = res.run.seconds();
    res.attribution.power[core::componentIndex(core::ComponentId::Gc)]
        .cpuJoules = double(next() % 10000) / 13.0;
    res.attribution.power[core::componentIndex(core::ComponentId::App)]
        .cpuJoules = double(next() % 10000) / 17.0;
    res.groundTruthCpuJoules = double(next() % 100000) / 19.0;
    res.groundTruthMemJoules = double(next() % 100000) / 23.0;
    return res;
}

std::string
reportBytes(const JobReport &report)
{
    std::ostringstream os;
    writeJobReport(os, report);
    return os.str();
}

/** Uncheckpointed reference run: the bytes every variant must match. */
std::string
cleanReportBytes(const Scenario &scenario,
                 const std::vector<SweepTask> &tasks)
{
    JobEngine::Config cfg;
    cfg.jobs = 1;
    cfg.execute = syntheticResult;
    const JobReport report =
        JobEngine(cfg).run(tasks, scenario.name, scenarioHash(scenario));
    EXPECT_EQ(report.executed, tasks.size());
    EXPECT_EQ(report.restored, 0u);
    return reportBytes(report);
}

/**
 * The key a shard presents to the executor: the engine rewrites the
 * config seed to taskSeed(base, global index) before dispatch, so
 * executor-side identity checks must use the mixed seed.
 */
std::string
executedKey(const std::vector<SweepTask> &tasks, std::size_t g)
{
    SweepTask t = tasks[g];
    t.config.seed = SweepRunner::taskSeed(t.config.seed, g);
    return shardKey(t);
}

std::string
readFileBytes(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(static_cast<bool>(in)) << "cannot open " << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

} // namespace

TEST(JobEngine, ReportIsWorkerCountInvariant)
{
    const Scenario scenario = testScenario();
    const auto tasks = expandScenario(scenario);
    const std::string expected = cleanReportBytes(scenario, tasks);
    for (const unsigned jobs : {2u, 8u}) {
        JobEngine::Config cfg;
        cfg.jobs = jobs;
        cfg.execute = syntheticResult;
        const JobReport report = JobEngine(cfg).run(
            tasks, scenario.name, scenarioHash(scenario));
        EXPECT_EQ(reportBytes(report), expected)
            << "at " << jobs << " workers";
    }
}

TEST(JobEngine, CrashAndResumeIsByteIdenticalAtEveryWorkerCount)
{
    const Scenario scenario = testScenario();
    const auto tasks = expandScenario(scenario);
    const std::string hash = scenarioHash(scenario);
    const std::string expected = cleanReportBytes(scenario, tasks);

    for (const unsigned jobs : {1u, 2u, 8u}) {
        const fs::path dir =
            scratchDir("crash_resume_j" + std::to_string(jobs));
        const std::string ckpt = (dir / "journal.jsonl").string();

        // First attempt: the kill switch aborts after 3 commits. The
        // other jobs - 1 workers may each be mid-shard, and a claimed
        // shard still commits, so 3 to 3 + jobs - 1 records hit the
        // journal: at most 10 of the 12 at 8 workers.
        JobEngine::Config first;
        first.jobs = jobs;
        first.execute = syntheticResult;
        first.checkpointPath = ckpt;
        first.keepGoing = [](std::size_t n) { return n < 3; };
        const JobReport crashed =
            JobEngine(first).run(tasks, scenario.name, hash);
        EXPECT_TRUE(crashed.aborted);
        EXPECT_GE(crashed.executed, 3u);
        EXPECT_LE(crashed.executed, 3u + jobs - 1);

        // Resume: only the lost shards run, and the merged report is
        // byte-identical to the uninterrupted reference.
        JobEngine::Config second;
        second.jobs = jobs;
        second.execute = syntheticResult;
        second.checkpointPath = ckpt;
        second.resume = true;
        const JobReport resumed =
            JobEngine(second).run(tasks, scenario.name, hash);
        EXPECT_FALSE(resumed.aborted);
        EXPECT_EQ(resumed.restored, crashed.executed);
        EXPECT_EQ(resumed.executed, tasks.size() - crashed.executed);
        EXPECT_LT(resumed.executed, tasks.size());
        EXPECT_EQ(reportBytes(resumed), expected)
            << "at " << jobs << " workers";
    }
}

TEST(JobEngineDeathTest, CrashAfterEnvRaisesSigkill)
{
    const Scenario scenario = testScenario();
    const auto tasks = expandScenario(scenario);
    const std::string hash = scenarioHash(scenario);
    const fs::path dir = scratchDir("sigkill_env");
    const std::string ckpt = (dir / "journal.jsonl").string();

    // The child sets the env var, runs, and dies by SIGKILL after the
    // second commit — the exact failure mode the CI smoke injects.
    EXPECT_EXIT(
        {
            setenv("JAVELIN_JOB_CRASH_AFTER", "2", 1);
            JobEngine::Config cfg;
            cfg.jobs = 1;
            cfg.execute = syntheticResult;
            cfg.checkpointPath = ckpt;
            JobEngine(cfg).run(tasks, scenario.name, hash);
        },
        testing::KilledBySignal(SIGKILL), "");

    // The dead child's journal holds the header plus exactly the two
    // flushed records; the parent resumes it to a byte-identical
    // report.
    const std::string journal = readFileBytes(ckpt);
    EXPECT_EQ(std::count(journal.begin(), journal.end(), '\n'), 3);

    JobEngine::Config cfg;
    cfg.jobs = 1;
    cfg.execute = syntheticResult;
    cfg.checkpointPath = ckpt;
    cfg.resume = true;
    const JobReport resumed =
        JobEngine(cfg).run(tasks, scenario.name, hash);
    EXPECT_EQ(resumed.restored, 2u);
    EXPECT_EQ(resumed.executed, tasks.size() - 2);
    EXPECT_EQ(reportBytes(resumed), cleanReportBytes(scenario, tasks));
}

TEST(JobEngineDeathTest, MalformedCrashAfterEnvIsIgnored)
{
    // Digits only: a sign, a blank or junk warns and leaves the hook
    // off ("+2" and " 2" used to crash after two commits, "-1" meant
    // 2^64-1).
    const Scenario scenario = testScenario();
    const auto tasks = expandScenario(scenario);
    for (const char *bad : {"+2", " 2", "-1", "2x", "abc"}) {
        EXPECT_EXIT(
            {
                setenv("JAVELIN_JOB_CRASH_AFTER", bad, 1);
                JobEngine::Config cfg;
                cfg.jobs = 1;
                cfg.execute = syntheticResult;
                const JobReport report = JobEngine(cfg).run(
                    tasks, scenario.name, scenarioHash(scenario));
                std::exit(report.executed == tasks.size() ? 0 : 1);
            },
            testing::ExitedWithCode(0),
            "ignoring invalid JAVELIN_JOB_CRASH_AFTER")
            << bad;
    }
}

TEST(JobEngine, TornFinalRecordIsDroppedAndReExecuted)
{
    const Scenario scenario = testScenario();
    const auto tasks = expandScenario(scenario);
    const std::string hash = scenarioHash(scenario);
    const fs::path dir = scratchDir("torn_tail");
    const std::string ckpt = (dir / "journal.jsonl").string();

    JobEngine::Config cfg;
    cfg.jobs = 1;
    cfg.execute = syntheticResult;
    cfg.checkpointPath = ckpt;
    JobEngine(cfg).run(tasks, scenario.name, hash);

    // Tear the tail: chop the final record mid-line, the state a
    // crash between write and flush leaves behind.
    const std::string full = readFileBytes(ckpt);
    const std::size_t lastNl = full.rfind('\n', full.size() - 2);
    ASSERT_NE(lastNl, std::string::npos);
    fs::resize_file(ckpt, lastNl + 1 + 17);

    cfg.resume = true;
    const JobReport resumed =
        JobEngine(cfg).run(tasks, scenario.name, hash);
    EXPECT_EQ(resumed.restored, tasks.size() - 1);
    EXPECT_EQ(resumed.executed, 1u);
    EXPECT_EQ(reportBytes(resumed), cleanReportBytes(scenario, tasks));

    // The repaired journal itself is fully intact again: a second
    // resume restores everything and runs nothing.
    const JobReport again =
        JobEngine(cfg).run(tasks, scenario.name, hash);
    EXPECT_EQ(again.restored, tasks.size());
    EXPECT_EQ(again.executed, 0u);
}

TEST(JobEngine, CorruptionBeforeTheTailIsRefused)
{
    const Scenario scenario = testScenario();
    const auto tasks = expandScenario(scenario);
    const std::string hash = scenarioHash(scenario);
    const fs::path dir = scratchDir("corrupt_middle");
    const std::string ckpt = (dir / "journal.jsonl").string();

    JobEngine::Config cfg;
    cfg.jobs = 1;
    cfg.execute = syntheticResult;
    cfg.checkpointPath = ckpt;
    JobEngine(cfg).run(tasks, scenario.name, hash);

    // Smash a record in the middle. Append-only files cannot tear
    // there, so this is bit rot or tampering: refuse, don't guess.
    std::string bytes = readFileBytes(ckpt);
    bytes[bytes.size() / 2] = '\0';
    std::ofstream(ckpt, std::ios::binary) << bytes;

    cfg.resume = true;
    try {
        JobEngine(cfg).run(tasks, scenario.name, hash);
        FAIL() << "corrupt mid-file journal was accepted";
    } catch (const JobEngineError &e) {
        EXPECT_NE(std::string(e.what()).find("corrupt"),
                  std::string::npos)
            << e.what();
    }
}

/**
 * Journal lines that parse but carry a field of the wrong type. A line
 * that parses is complete, so even as the last line it is corruption,
 * not a tear: every mutant is refused both mid-file and at the tail,
 * as a JobEngineError naming the journal line. The header mutants are
 * "at the tail" in a journal that holds only its header.
 */
TEST(JobEngine, MistypedFieldIsRefusedMidFileAndAtTheTail)
{
    const Scenario scenario = testScenario();
    const auto tasks = expandScenario(scenario);
    const std::string hash = scenarioHash(scenario);
    const fs::path dir = scratchDir("mistyped");
    const std::string ckpt = (dir / "journal.jsonl").string();

    JobEngine::Config cfg;
    cfg.jobs = 1;
    cfg.execute = syntheticResult;
    cfg.checkpointPath = ckpt;
    JobEngine(cfg).run(tasks, scenario.name, hash);
    std::vector<std::string> lines;
    {
        std::istringstream in(readFileBytes(ckpt));
        for (std::string line; std::getline(in, line);)
            lines.push_back(line);
    }
    ASSERT_EQ(lines.size(), tasks.size() + 1);

    const struct
    {
        bool header;
        std::string key;
        std::string value;
        std::string error;
    } mutants[] = {
        {false, "metrics", "[\"x\"", "expected a number, got string"},
        {false, "ok", "\"yes\"", "expected a boolean, got string"},
        {false, "shard", "-1", "expected a non-negative integer"},
        {false, "key", "5", "expected a string, got number"},
        {true, "scenario_hash", "5", "expected a string, got number"},
        {true, "shards", "2.5", "expected a non-negative integer"},
    };
    cfg.resume = true;
    for (const auto &m : mutants) {
        for (const bool tail : {false, true}) {
            SCOPED_TRACE(m.key + (tail ? " at the tail" : " mid-file"));
            // The line to mutate, and the journal's length after it.
            const std::size_t at =
                m.header ? 0 : tail ? lines.size() - 1 : lines.size() / 2;
            const std::size_t keep = m.header && tail ? 1 : lines.size();
            std::string bytes;
            for (std::size_t i = 0; i < keep; ++i) {
                std::string line = lines[i];
                if (i == at) {
                    // Replace the value up to the next ',' or '}'.
                    const std::string field = "\"" + m.key + "\": ";
                    const std::size_t from = line.find(field);
                    ASSERT_NE(from, std::string::npos) << line;
                    const std::size_t start = from + field.size();
                    const std::size_t end = line.find_first_of(",}", start);
                    line.replace(start, end - start, m.value);
                }
                bytes += line + "\n";
            }
            std::ofstream(ckpt, std::ios::binary | std::ios::trunc)
                << bytes;
            try {
                JobEngine(cfg).run(tasks, scenario.name, hash);
                ADD_FAILURE() << "mistyped journal accepted";
            } catch (const JobEngineError &e) {
                EXPECT_PRED_FORMAT2(
                    testing::IsSubstring,
                    "checkpoint " + ckpt + ": journal line " +
                        std::to_string(at + 1) + ": " + m.error,
                    e.what());
            }
        }
    }
}

TEST(JobEngine, StaleScenarioHashIsRefused)
{
    const Scenario scenario = testScenario();
    const auto tasks = expandScenario(scenario);
    const fs::path dir = scratchDir("stale_hash");
    const std::string ckpt = (dir / "journal.jsonl").string();

    JobEngine::Config cfg;
    cfg.jobs = 1;
    cfg.execute = syntheticResult;
    cfg.checkpointPath = ckpt;
    cfg.keepGoing = [](std::size_t n) { return n < 3; };
    JobEngine(cfg).run(tasks, scenario.name, scenarioHash(scenario));

    // The scenario changed under the checkpoint (here: one more heap
    // point). Merging old records into the new sweep would silently
    // mislabel shards — the engine must refuse outright.
    Scenario edited = scenario;
    edited.heapsMB.push_back(80);
    const auto editedTasks = expandScenario(edited);
    JobEngine::Config resume;
    resume.jobs = 1;
    resume.execute = syntheticResult;
    resume.checkpointPath = ckpt;
    resume.resume = true;
    try {
        JobEngine(resume).run(editedTasks, edited.name,
                              scenarioHash(edited));
        FAIL() << "stale checkpoint was merged";
    } catch (const JobEngineError &e) {
        EXPECT_NE(std::string(e.what()).find("refusing"),
                  std::string::npos)
            << e.what();
    }
}

TEST(JobEngine, ExistingCheckpointWithoutResumeIsRefused)
{
    const Scenario scenario = testScenario();
    const auto tasks = expandScenario(scenario);
    const std::string hash = scenarioHash(scenario);
    const fs::path dir = scratchDir("no_clobber");
    const std::string ckpt = (dir / "journal.jsonl").string();

    JobEngine::Config cfg;
    cfg.jobs = 1;
    cfg.execute = syntheticResult;
    cfg.checkpointPath = ckpt;
    cfg.keepGoing = [](std::size_t n) { return n < 2; };
    JobEngine(cfg).run(tasks, scenario.name, hash);

    cfg.keepGoing = nullptr;
    try {
        JobEngine(cfg).run(tasks, scenario.name, hash);
        FAIL() << "half-finished checkpoint was clobbered";
    } catch (const JobEngineError &e) {
        EXPECT_NE(std::string(e.what()).find("already exists"),
                  std::string::npos)
            << e.what();
    }
}

TEST(JobEngine, DuplicateShardRecordsResolveLastWriteWins)
{
    const Scenario scenario = testScenario();
    const auto tasks = expandScenario(scenario);
    const std::string hash = scenarioHash(scenario);
    const fs::path dir = scratchDir("dup_records");
    const std::string ckpt = (dir / "journal.jsonl").string();

    JobEngine::Config cfg;
    cfg.jobs = 1;
    cfg.execute = syntheticResult;
    cfg.checkpointPath = ckpt;
    JobEngine(cfg).run(tasks, scenario.name, hash);

    // Append a second record for shard 0 with a different payload (a
    // re-run appended after a resume raced an earlier record). The
    // later line must win.
    {
        std::ofstream app(ckpt, std::ios::binary | std::ios::app);
        app << "{\"shard\": 0, \"key\": \"" << shardKey(tasks[0])
            << "\", \"ok\": false, \"error\": \"superseded\"}\n";
    }

    cfg.resume = true;
    const JobReport resumed =
        JobEngine(cfg).run(tasks, scenario.name, hash);
    EXPECT_EQ(resumed.restored, tasks.size());
    // Journaled failures are deterministic: not re-executed.
    EXPECT_EQ(resumed.executed, 0u);
    ASSERT_FALSE(resumed.records.empty());
    EXPECT_EQ(resumed.records[0].shard, 0u);
    EXPECT_FALSE(resumed.records[0].ok);
    EXPECT_EQ(resumed.records[0].error, "superseded");
    EXPECT_EQ(resumed.failures(), 1u);
}

TEST(JobEngine, ShardPartitionsAreDisjointAndMergeByteIdentical)
{
    const Scenario scenario = testScenario();
    const auto tasks = expandScenario(scenario);
    const std::string hash = scenarioHash(scenario);
    const std::string expected = cleanReportBytes(scenario, tasks);
    const fs::path dir = scratchDir("partition");
    const std::string ckpt = (dir / "journal.jsonl").string();

    // javelin-sweep --shard i/3 against one shared checkpoint: each
    // partition executes its residue class, the last merge holds all.
    std::vector<std::size_t> executions(tasks.size(), 0);
    std::mutex mu;
    JobReport last;
    for (std::size_t part = 0; part < 3; ++part) {
        JobEngine::Config cfg;
        cfg.jobs = 2;
        cfg.checkpointPath = ckpt;
        cfg.resume = part != 0;
        cfg.shardIndex = part;
        cfg.shardCount = 3;
        cfg.execute = [&](const SweepTask &task) {
            {
                std::lock_guard<std::mutex> lock(mu);
                for (std::size_t g = 0; g < tasks.size(); ++g)
                    if (executedKey(tasks, g) == shardKey(task))
                        ++executions[g];
            }
            return syntheticResult(task);
        };
        last = JobEngine(cfg).run(tasks, scenario.name, hash);
        EXPECT_EQ(last.executed, tasks.size() / 3 +
                                     (part < tasks.size() % 3 ? 1 : 0));
    }
    for (std::size_t g = 0; g < tasks.size(); ++g)
        EXPECT_EQ(executions[g], 1u) << "shard " << g;
    EXPECT_EQ(last.records.size(), tasks.size());
    EXPECT_EQ(reportBytes(last), expected);

    EXPECT_THROW(
        JobEngine(JobEngine::Config{"", false, 0, 3, 3, {}, {}, {}, ""})
            .run(tasks, scenario.name, hash),
        JobEngineError);
}

TEST(JobEngine, FuzzRandomKillPointsAlwaysConvergeByteIdentical)
{
    const Scenario scenario = testScenario();
    const auto tasks = expandScenario(scenario);
    const std::string hash = scenarioHash(scenario);
    const std::string expected = cleanReportBytes(scenario, tasks);

    std::mt19937_64 rng(0x9e3779b97f4a7c15ULL);
    for (int iter = 0; iter < 12; ++iter) {
        const fs::path dir =
            scratchDir("fuzz_" + std::to_string(iter));
        const std::string ckpt = (dir / "journal.jsonl").string();
        std::vector<std::atomic<std::size_t>> executions(tasks.size());

        JobReport report;
        bool first = true;
        int attempts = 0;
        do {
            ASSERT_LT(attempts++, 64) << "fuzz run failed to converge";
            const std::size_t killAfter = 1 + rng() % tasks.size();
            const unsigned jobs = 1u << (rng() % 4);
            JobEngine::Config cfg;
            cfg.jobs = jobs;
            cfg.checkpointPath = ckpt;
            cfg.resume = !first;
            cfg.execute = [&](const SweepTask &task) {
                for (std::size_t g = 0; g < tasks.size(); ++g)
                    if (executedKey(tasks, g) == shardKey(task))
                        ++executions[g];
                return syntheticResult(task);
            };
            cfg.keepGoing = [killAfter](std::size_t n) {
                return n < killAfter;
            };
            report = JobEngine(cfg).run(tasks, scenario.name, hash);
            first = false;
        } while (report.records.size() < tasks.size());

        EXPECT_EQ(reportBytes(report), expected) << "iter " << iter;
        // The checkpoint makes execution exactly-once no matter where
        // the kills landed.
        for (std::size_t g = 0; g < tasks.size(); ++g)
            EXPECT_EQ(executions[g].load(), 1u)
                << "iter " << iter << " shard " << g;
    }
}

/**
 * End to end with the real executor (runExperiment) on three Small
 * shards, one of which cannot create its power trace because a
 * directory holds the path. That shard fails alone, under its key, and
 * a resume restores every record without running anything. A second
 * journal, crashed after its first commit and resumed, reaches the
 * same report bytes as the uninterrupted run.
 */
TEST(JobEngine, RealExperimentSpoolFailureCostsOneShard)
{
    Scenario scenario;
    scenario.name = "job-engine-e2e";
    scenario.base.dataset = workloads::DatasetScale::Small;
    scenario.base.collector = jvm::CollectorKind::SemiSpace;
    scenario.benchmarks = {"_202_jess"};
    scenario.heapsMB = {32, 48, 64};
    auto tasks = expandScenario(scenario);
    ASSERT_EQ(tasks.size(), 3u);
    const std::string hash = scenarioHash(scenario);
    const fs::path dir = scratchDir("e2e");
    for (auto &task : tasks)
        task.config.traceSpoolDir = (dir / shardKey(task)).string();
    const fs::path blocked =
        fs::path(tasks[1].config.traceSpoolDir) / "_202_jess.power.jtrc";
    fs::create_directories(blocked);

    JobEngine::Config cfg;
    cfg.jobs = 2;
    cfg.checkpointPath = (dir / "journal.jsonl").string();
    const JobReport report =
        JobEngine(cfg).run(tasks, scenario.name, hash);
    EXPECT_FALSE(report.aborted);
    EXPECT_EQ(report.failures(), 1u);
    ASSERT_EQ(report.records.size(), 3u);
    EXPECT_TRUE(report.records[0].ok);
    EXPECT_TRUE(report.records[2].ok);
    EXPECT_EQ(report.records[1].key, shardKey(tasks[1]));
    EXPECT_EQ(report.records[1].error, "trace spool: cannot create " +
                                           blocked.string() +
                                           ": Is a directory");
    // The failure is in the serialized report, not swallowed.
    const std::string expected = reportBytes(report);
    EXPECT_NE(expected.find(report.records[1].error), std::string::npos);

    cfg.resume = true;
    const JobReport restored =
        JobEngine(cfg).run(tasks, scenario.name, hash);
    EXPECT_EQ(restored.restored, 3u);
    EXPECT_EQ(restored.executed, 0u);
    EXPECT_EQ(reportBytes(restored), expected);

    JobEngine::Config crash;
    crash.jobs = 1;
    crash.checkpointPath = (dir / "crashed.jsonl").string();
    crash.keepGoing = [](std::size_t n) { return n < 1; };
    const JobReport crashed =
        JobEngine(crash).run(tasks, scenario.name, hash);
    EXPECT_TRUE(crashed.aborted);
    EXPECT_EQ(crashed.executed, 1u);

    crash.resume = true;
    crash.keepGoing = nullptr;
    const JobReport resumed =
        JobEngine(crash).run(tasks, scenario.name, hash);
    EXPECT_EQ(resumed.restored, 1u);
    EXPECT_EQ(resumed.executed, 2u);
    EXPECT_EQ(reportBytes(resumed), expected);
}
