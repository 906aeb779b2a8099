/**
 * @file
 * One benchmark pass as a process, so every pass starts from a fresh
 * heap and reports its own peak RSS and CPU time.
 *
 *   perfbench --workload mutator|gc|sweep --seed N
 *             --mode plain|traced|detached --workdir DIR [--tiny]
 *
 * Prints one JSON object on stdout; run.py aggregates many of them.
 */

#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>

#include "passes.hh"
#include "util/json.hh"

using namespace javelin;
using namespace javelin::perfbench;

namespace {

int
usageError(const std::string &msg)
{
    std::cerr << "perfbench: " << msg
              << "\nusage: perfbench --workload NAME --seed N --mode "
                 "plain|traced|detached --workdir DIR [--tiny]\n";
    return 2;
}

void
printRecord(std::ostream &os, const PassRecord &rec)
{
    os << "{\"attempted\": " << rec.attempted
       << ", \"failed\": " << rec.failed << ", \"errors\": [";
    for (std::size_t i = 0; i < rec.errors.size(); ++i) {
        os << (i ? ", " : "");
        json::writeString(os, rec.errors[i]);
    }
    os << "], \"sim_fingerprint\": ";
    json::writeString(os, rec.simFingerprint);
    os << ", \"full_fingerprint\": ";
    json::writeString(os, rec.fullFingerprint);
    os << ", \"values\": {";
    bool first = true;
    for (const auto &[name, value] : rec.values) {
        os << (first ? "" : ", ");
        first = false;
        json::writeString(os, name);
        os << ": ";
        json::writeNumber(os, value);
    }
    os << "}, \"spans\": [";
    for (std::size_t i = 0; i < rec.spans.size(); ++i) {
        os << (i ? ", " : "") << "[";
        json::writeString(os, rec.spans[i].name);
        os << ", ";
        json::writeNumber(os, rec.spans[i].start);
        os << ", ";
        json::writeNumber(os, rec.spans[i].end);
        os << "]";
    }
    os << "]}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, seedText, modeText, workdir;
    bool tiny = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&](std::string *out) {
            if (i + 1 >= argc)
                return false;
            *out = argv[++i];
            return true;
        };
        bool ok = true;
        if (arg == "--workload")
            ok = value(&workload);
        else if (arg == "--seed")
            ok = value(&seedText);
        else if (arg == "--mode")
            ok = value(&modeText);
        else if (arg == "--workdir")
            ok = value(&workdir);
        else if (arg == "--tiny")
            tiny = true;
        else
            return usageError("unknown argument " + arg);
        if (!ok)
            return usageError(arg + " needs a value");
    }
    Mode mode = Mode::Plain;
    if (workload.empty() || seedText.empty() || workdir.empty())
        return usageError("--workload, --seed and --workdir are required");
    if (!parseMode(modeText, &mode))
        return usageError("unknown mode \"" + modeText + "\"");
    char *end = nullptr;
    const std::uint64_t seed = std::strtoull(seedText.c_str(), &end, 10);
    if (end == seedText.c_str() || *end != '\0')
        return usageError("seed must be a non-negative integer");

    try {
        const Workload w = makeWorkload(workload, seed, tiny);
        printRecord(std::cout, runPass(w, mode, workdir));
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
