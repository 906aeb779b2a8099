#include "harness/job_engine.hh"

#include <atomic>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <ostream>
#include <sstream>

#include "harness/ensemble.hh"
#include "harness/scenario.hh"
#include "util/json.hh"
#include "util/kv_store.hh"

namespace javelin {
namespace harness {

namespace {

constexpr const char *kJournalSchema = "javelin-journal-v1";
constexpr const char *kReportSchema = "javelin-sweep-v1";

[[noreturn]] void
journalError(const std::string &path, const std::string &msg)
{
    throw JobEngineError("checkpoint " + path + ": " + msg);
}

/** One journal line for a record (newline included). */
std::string
journalLine(const ShardRecord &rec)
{
    std::ostringstream os;
    os << "{\"shard\": " << rec.shard << ", \"key\": ";
    json::writeString(os, rec.key);
    os << ", \"ok\": " << (rec.ok ? "true" : "false");
    if (rec.ok) {
        os << ", \"metrics\": [";
        for (std::size_t i = 0; i < rec.metrics.size(); ++i) {
            os << (i ? ", " : "");
            json::writeNumber(os, rec.metrics[i]);
        }
        os << "], \"gc_collections\": " << rec.gcCollections
           << ", \"bytecodes\": " << rec.bytecodes;
    } else {
        os << ", \"error\": ";
        json::writeString(os, rec.error);
    }
    os << "}\n";
    return os.str();
}

std::string
journalHeader(const std::string &name, const std::string &hash,
              std::size_t shards)
{
    std::ostringstream os;
    os << "{\"schema\": \"" << kJournalSchema << "\", \"scenario\": ";
    json::writeString(os, name);
    os << ", \"scenario_hash\": ";
    json::writeString(os, hash);
    os << ", \"shards\": " << shards << "}\n";
    return os.str();
}

ShardRecord
parseRecordLine(const std::string &path, const json::Value &v,
                std::size_t shard_total)
{
    ShardRecord rec;
    bool sawShard = false, sawKey = false, sawOk = false;
    for (const auto &[key, field] : v.members) {
        if (key == "shard") {
            rec.shard = field.asU64();
            sawShard = true;
        } else if (key == "key") {
            rec.key = field.asString();
            sawKey = true;
        } else if (key == "ok") {
            rec.ok = field.asBool();
            sawOk = true;
        } else if (key == "metrics") {
            if (!field.isArray())
                journalError(path, "\"metrics\" must be an array");
            for (const auto &m : field.items)
                rec.metrics.push_back(m.asDouble());
        } else if (key == "gc_collections") {
            rec.gcCollections = field.asU64();
        } else if (key == "bytecodes") {
            rec.bytecodes = field.asU64();
        } else if (key == "error") {
            rec.error = field.asString();
        } else {
            journalError(path, "unknown record key \"" + key + "\"");
        }
    }
    if (!sawShard || !sawKey || !sawOk)
        journalError(path, "record missing shard/key/ok");
    if (rec.shard >= shard_total)
        journalError(path, "record shard " + std::to_string(rec.shard) +
                               " out of range (sweep has " +
                               std::to_string(shard_total) + ")");
    if (rec.ok && rec.metrics.size() != jobMetricNames().size())
        journalError(path, "record shard " + std::to_string(rec.shard) +
                               " has a malformed metrics payload");
    return rec;
}

/** Validate the journal's header line against the sweep. */
void
checkHeader(const std::string &path, const json::Value &v,
            std::size_t shard_total, const std::string &scenario_hash)
{
    const json::Value *schema = v.find("schema");
    const json::Value *hash = v.find("scenario_hash");
    const json::Value *shards = v.find("shards");
    if (!schema || schema->asString() != kJournalSchema)
        journalError(path, "missing or unsupported journal schema");
    if (!hash)
        journalError(path, "header missing scenario_hash");
    if (hash->asString() != scenario_hash)
        journalError(path, "was written for scenario hash " +
                               hash->asString() +
                               " but this sweep hashes to " +
                               scenario_hash +
                               "; refusing to merge (delete the "
                               "checkpoint or fix the scenario)");
    if (!shards || shards->asU64() != shard_total)
        journalError(path,
                     "header shard count does not match the sweep");
}

struct LoadedJournal
{
    /** Valid records, last-write-wins per shard. */
    std::map<std::size_t, ShardRecord> records;
    /** Byte offset just past the last intact line. */
    std::uintmax_t intactBytes = 0;
};

/**
 * Load and validate a journal. A torn final line (crash mid-write) is
 * dropped; corruption anywhere else, a schema/hash mismatch, or a
 * record that does not match the sweep being resumed is refused.
 */
LoadedJournal
loadJournal(const std::string &path,
            const std::vector<SweepTask> &tasks,
            const std::string &scenario_hash)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        journalError(path, "cannot open for resume");
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();

    LoadedJournal out;
    std::size_t pos = 0;
    std::size_t lineNo = 0;
    bool sawHeader = false;
    while (pos < text.size()) {
        const std::size_t nl = text.find('\n', pos);
        const bool lastLine = nl == std::string::npos;
        const std::string line =
            text.substr(pos, lastLine ? std::string::npos : nl - pos);
        const std::size_t lineStart = pos;
        pos = lastLine ? text.size() : nl + 1;
        ++lineNo;
        if (line.empty())
            continue;

        json::Value v;
        try {
            v = json::parse(line);
            if (!v.isObject())
                throw json::ParseError(1, "journal line not an object");
        } catch (const json::ParseError &) {
            // A crash can only tear the tail of an append-only file:
            // drop an unparseable final line, refuse anything earlier.
            if (lastLine) {
                out.intactBytes = lineStart;
                return out;
            }
            journalError(path, "corrupt journal line (not at the end "
                               "of the file)");
        }

        // A line that parses is complete, wherever it is, so a field of
        // the wrong type is corruption, never a tear. The parser numbers
        // every line 1; name the journal's line instead.
        try {
            if (!sawHeader) {
                checkHeader(path, v, tasks.size(), scenario_hash);
                sawHeader = true;
            } else {
                ShardRecord rec = parseRecordLine(path, v, tasks.size());
                const std::string expected = shardKey(tasks[rec.shard]);
                if (rec.key != expected)
                    journalError(path, "record for shard " +
                                           std::to_string(rec.shard) +
                                           " has key \"" + rec.key +
                                           "\" but the sweep expects \"" +
                                           expected + "\"");
                // Duplicate shard records: last-write-wins.
                out.records[rec.shard] = std::move(rec);
            }
        } catch (const json::ParseError &e) {
            const std::string what = e.what();
            journalError(path, "journal line " + std::to_string(lineNo) +
                                   what.substr(what.find(':')));
        }
        out.intactBytes = pos;
    }
    if (!sawHeader && !text.empty())
        journalError(path, "no intact header line");
    return out;
}

} // namespace

const std::vector<std::string> &
jobMetricNames()
{
    return ensembleMetricNames();
}

std::size_t
JobReport::failures() const
{
    std::size_t n = 0;
    for (const auto &r : records)
        if (!r.ok)
            ++n;
    return n;
}

JobReport
JobEngine::run(const std::vector<SweepTask> &tasks,
               const std::string &scenario_name,
               const std::string &scenario_hash) const
{
    if (config_.shardCount < 1 ||
        config_.shardIndex >= config_.shardCount)
        throw JobEngineError("invalid shard partition " +
                             std::to_string(config_.shardIndex) + "/" +
                             std::to_string(config_.shardCount));

    std::uint64_t crashAfter = 0;
    const char *env = std::getenv("JAVELIN_JOB_CRASH_AFTER");
    if (env && !SweepRunner::parseCount(env, crashAfter))
        std::cerr << "javelin: ignoring invalid JAVELIN_JOB_CRASH_AFTER='"
                  << env << "'\n";

    JobReport report;
    report.scenarioName = scenario_name;
    report.scenarioHash = scenario_hash;
    report.shardCount = tasks.size();

    // --- checkpoint: load (resume) or create.
    std::map<std::size_t, ShardRecord> known;
    std::ofstream journal;
    const std::string &path = config_.checkpointPath;
    if (!path.empty()) {
        const bool exists = std::filesystem::exists(path);
        if (exists && !config_.resume)
            journalError(path, "already exists; resume with --resume "
                               "or delete it to start over");
        if (exists) {
            LoadedJournal loaded =
                loadJournal(path, tasks, scenario_hash);
            known = std::move(loaded.records);
            // Drop any torn tail so appended records start clean.
            if (loaded.intactBytes <
                std::filesystem::file_size(path))
                std::filesystem::resize_file(path,
                                             loaded.intactBytes);
            journal.open(path, std::ios::binary | std::ios::app);
            if (!journal)
                journalError(path, "cannot reopen for append");
            if (loaded.intactBytes == 0) {
                journal << journalHeader(scenario_name, scenario_hash,
                                         tasks.size());
                journal.flush();
            }
        } else {
            journal.open(path, std::ios::binary | std::ios::trunc);
            if (!journal)
                journalError(path, "cannot create");
            journal << journalHeader(scenario_name, scenario_hash,
                                     tasks.size());
            journal.flush();
        }
    }
    report.restored = known.size();

    // --- pending shards: this partition minus restored records.
    std::vector<std::size_t> pending;
    std::size_t partitionTotal = 0;
    std::size_t partitionRestored = 0;
    for (std::size_t g = 0; g < tasks.size(); ++g) {
        if (g % config_.shardCount != config_.shardIndex)
            continue;
        ++partitionTotal;
        if (known.count(g))
            ++partitionRestored;
        else
            pending.push_back(g);
    }

    // --- the pool over the pending list. Seeds key off the GLOBAL
    // shard index, so results are invariant to what happens to be
    // pending (the byte-identical-resume property).
    std::atomic<bool> stop{false};
    std::mutex commitMutex;
    std::size_t committed = 0;

    SweepRunner::parallelFor(
        pending.size(),
        [&](std::size_t i) {
            // After keepGoing said stop, claimed shards are left
            // unrun, as a crash would leave them.
            if (stop.load(std::memory_order_acquire))
                return;
            const std::size_t g = pending[i];
            SweepTask task = tasks[g];
            task.config.seed =
                SweepRunner::taskSeed(task.config.seed, g);
            const ExperimentResult res =
                SweepRunner::runTask(task, config_.execute);

            ShardRecord rec;
            rec.shard = g;
            rec.key = shardKey(tasks[g]);
            rec.ok = res.ok();
            if (rec.ok) {
                rec.metrics = ensembleMetrics(res);
                rec.gcCollections = res.run.gc.collections;
                rec.bytecodes = res.run.bytecodesExecuted;
            } else {
                rec.error = res.error();
            }

            std::lock_guard<std::mutex> lock(commitMutex);
            if (journal.is_open()) {
                journal << journalLine(rec);
                journal.flush();
            }
            known[g] = std::move(rec);
            ++committed;
            if (config_.progress)
                config_.progress(partitionRestored + committed,
                                 partitionTotal);
            if (crashAfter != 0 && committed >= crashAfter) {
                // Simulated hard crash for the fault-injection rig:
                // the journal is flushed, the process dies exactly as
                // an external SIGKILL would leave it.
                std::raise(SIGKILL);
            }
            if (config_.keepGoing && !config_.keepGoing(committed))
                stop.store(true, std::memory_order_release);
        },
        config_.jobs);

    report.aborted = stop.load();
    report.executed = committed;
    report.records.reserve(known.size());
    for (auto &[g, rec] : known)
        report.records.push_back(std::move(rec));

    // --- optional result store: one batched flush for the whole run.
    if (!config_.resultStorePath.empty()) {
        try {
            KvStore store(config_.resultStorePath);
            for (const auto &rec : report.records) {
                std::string line = journalLine(rec);
                line.pop_back(); // strip the journal's newline
                store.put(rec.key, line);
            }
            store.flush();
            store.close();
        } catch (const KvError &e) {
            throw JobEngineError(std::string("result store: ") +
                                 e.what());
        }
    }
    return report;
}

void
writeJobReport(std::ostream &os, const JobReport &report)
{
    const auto &names = jobMetricNames();
    os << "{\n";
    os << "  \"schema\": \"" << kReportSchema << "\",\n";
    os << "  \"scenario\": ";
    json::writeString(os, report.scenarioName);
    os << ",\n  \"scenario_hash\": ";
    json::writeString(os, report.scenarioHash);
    os << ",\n  \"shards\": " << report.shardCount;
    os << ",\n  \"completed\": " << report.records.size();
    os << ",\n  \"failed\": " << report.failures();
    os << ",\n  \"results\": [\n";
    for (std::size_t i = 0; i < report.records.size(); ++i) {
        const auto &rec = report.records[i];
        os << "    {\"shard\": " << rec.shard << ", \"key\": ";
        json::writeString(os, rec.key);
        os << ", \"ok\": " << (rec.ok ? "true" : "false");
        if (!rec.ok) {
            os << ", \"error\": ";
            json::writeString(os, rec.error);
        } else {
            os << ", \"gc_collections\": " << rec.gcCollections
               << ", \"bytecodes\": " << rec.bytecodes
               << ", \"metrics\": {";
            for (std::size_t m = 0; m < rec.metrics.size(); ++m) {
                os << (m ? ", " : "");
                json::writeString(os, names[m]);
                os << ": ";
                json::writeNumber(os, rec.metrics[m]);
            }
            os << "}";
        }
        os << "}" << (i + 1 < report.records.size() ? "," : "")
           << "\n";
    }
    os << "  ]\n}\n";
}

} // namespace harness
} // namespace javelin
