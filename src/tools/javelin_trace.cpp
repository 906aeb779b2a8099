/**
 * @file
 * javelin-trace: inspect, export, and exercise javelin-trace-v1
 * binary trace files (core/trace_format.hh, DESIGN.md §10).
 *
 *   javelin-trace cat FILE                 decode all records as CSV
 *                                          on stdout
 *   javelin-trace index FILE               print the per-block footer
 *                                          index and recovery status
 *   javelin-trace export-csv FILE OUT.csv  decode to a CSV file
 *                                          (byte-identical to the
 *                                          in-memory writer's CSV)
 *   javelin-trace range FILE FROM TO       decode only ticks in
 *                                          [FROM, TO] as CSV, using
 *                                          the block index to skip
 *
 *   javelin-trace record [options]         write a synthetic trace
 *                                          with core::writeTrace, for
 *                                          smoke tests
 *     --kind power|perf        record type (default power)
 *     --samples N              records to write (default 100000)
 *     --buffer-bytes B         block size (default 1 MiB)
 *     --out FILE               trace path (default trace.jtrc)
 *     --csv-oracle FILE        also write the samples via the CSV
 *                              writer (the differential oracle)
 *
 * Numeric arguments (N, B, FROM, TO) are non-negative decimal
 * integers; anything else is a usage error.
 *
 * The synthetic sample stream is a pure function of the record index,
 * so two `record` runs at any buffer size produce records that decode
 * identically — that is what the CI smoke's cmp relies on.
 *
 * Exit status: 0 ok; 1 a trace that cannot be read or written (the
 * TraceError is printed as "javelin-trace: <message>"); 2 usage errors
 * and output files that cannot be opened.
 */

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "core/trace_io.hh"
#include "core/trace_spool.hh"
#include "harness/sweep.hh"
#include "util/units.hh"

using namespace javelin;
using namespace javelin::core;
using javelin::harness::SweepRunner;

namespace {

int
usage()
{
    std::cerr
        << "usage: javelin-trace cat FILE\n"
           "       javelin-trace index FILE\n"
           "       javelin-trace export-csv FILE OUT.csv\n"
           "       javelin-trace range FILE FROM_TICK TO_TICK\n"
           "       javelin-trace record [--kind power|perf]\n"
           "                            [--samples N] "
           "[--buffer-bytes B]\n"
           "                            [--out FILE] "
           "[--csv-oracle FILE]\n";
    return 2;
}

void
writeCsv(std::ostream &os, const TraceReader &reader,
         const PowerTrace &power, const PerfTrace &perf)
{
    if (reader.kind() == tracefmt::RecordKind::Power)
        writePowerCsv(os, power);
    else
        writePerfCsv(os, perf);
}

/** Deterministic synthetic power sample for record index i. */
PowerSample
syntheticPower(std::uint64_t i)
{
    PowerSample s;
    s.tick = (i + 1) * kTicksPerMicro;
    s.windowTicks = kTicksPerMicro;
    // Shapes chosen to exercise the full double width (non-terminating
    // binary fractions) so the CSV round-trip test is not vacuous.
    s.cpuWatts = 2.0 + static_cast<double>(i % 997) / 997.0;
    s.memWatts = 0.3 + static_cast<double>(i % 101) / 303.0;
    s.component =
        static_cast<ComponentId>(i % kNumComponents);
    return s;
}

/** Deterministic synthetic perf sample for record index i. */
PerfSample
syntheticPerf(std::uint64_t i)
{
    PerfSample s;
    s.tick = (i + 1) * kTicksPerMicro;
    s.component = static_cast<ComponentId>(i % kNumComponents);
    s.delta.cycles = 1000 + i % 400;
    s.delta.instructions = 700 + i % 350;
    s.delta.stallCycles = i % 90;
    s.delta.branches = 120 + i % 60;
    s.delta.branchMispredicts = i % 7;
    s.delta.l1iAccesses = 650 + i % 100;
    s.delta.l1iMisses = i % 11;
    s.delta.l1dAccesses = 300 + i % 200;
    s.delta.l1dMisses = i % 23;
    s.delta.l2Accesses = i % 23 + i % 11;
    s.delta.l2Misses = i % 5;
    s.delta.l2Probes = i % 3;
    s.delta.dramAccesses = i % 5;
    s.delta.dramWritebacks = i % 2;
    return s;
}

int
cmdRecord(int argc, char **argv)
{
    tracefmt::RecordKind kind = tracefmt::RecordKind::Power;
    std::uint64_t samples = 100000;
    std::uint64_t blockBytes = 1 << 20;
    std::string path = "trace.jtrc";
    std::string oraclePath;

    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--kind" && i + 1 < argc) {
            const std::string k = argv[++i];
            if (k == "power") {
                kind = tracefmt::RecordKind::Power;
            } else if (k == "perf") {
                kind = tracefmt::RecordKind::Perf;
            } else {
                std::cerr << "javelin-trace: bad --kind " << k << "\n";
                return 2;
            }
        } else if (arg == "--samples" && i + 1 < argc) {
            if (!SweepRunner::parseCount(argv[++i], samples))
                return usage();
        } else if (arg == "--buffer-bytes" && i + 1 < argc) {
            if (!SweepRunner::parseCount(argv[++i], blockBytes))
                return usage();
        } else if (arg == "--out" && i + 1 < argc) {
            path = argv[++i];
        } else if (arg == "--csv-oracle" && i + 1 < argc) {
            oraclePath = argv[++i];
        } else {
            return usage();
        }
    }

    std::ofstream oracle;
    if (!oraclePath.empty()) {
        oracle.open(oraclePath, std::ios::binary);
        if (!oracle) {
            std::cerr << "javelin-trace: cannot open " << oraclePath
                      << "\n";
            return 2;
        }
    }
    if (kind == tracefmt::RecordKind::Power) {
        PowerTrace trace;
        for (std::uint64_t i = 0; i < samples; ++i)
            trace.push_back(syntheticPower(i));
        writeTrace(path, trace, blockBytes);
        if (oracle.is_open())
            writePowerCsv(oracle, trace);
    } else {
        PerfTrace trace;
        for (std::uint64_t i = 0; i < samples; ++i)
            trace.push_back(syntheticPerf(i));
        writeTrace(path, trace, blockBytes);
        if (oracle.is_open())
            writePerfCsv(oracle, trace);
    }
    std::cerr << "javelin-trace: wrote " << path << ": " << samples
              << " records\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
try {
    if (argc < 2)
        return usage();
    const std::string cmd = argv[1];

    if (cmd == "record")
        return cmdRecord(argc, argv);

    if (argc < 3)
        return usage();
    const std::string path = argv[2];

    if (cmd == "cat") {
        if (argc != 3)
            return usage();
        TraceReader reader(path);
        writeCsv(std::cout, reader,
                 reader.kind() == tracefmt::RecordKind::Power
                     ? reader.readPower()
                     : PowerTrace(),
                 reader.kind() == tracefmt::RecordKind::Perf
                     ? reader.readPerf()
                     : PerfTrace());
        return 0;
    }
    if (cmd == "index") {
        if (argc != 3)
            return usage();
        TraceReader reader(path);
        std::cout << "kind: "
                  << (reader.kind() == tracefmt::RecordKind::Power
                          ? "power"
                          : "perf")
                  << "\nblocks: " << reader.blocks().size()
                  << "\nrecords: " << reader.recordCount()
                  << "\nintact_bytes: " << reader.intactBytes()
                  << "\ntorn_tail: " << (reader.torn() ? "yes" : "no")
                  << "\n";
        std::cout << "offset,records,first_tick,last_tick,"
                     "component_mask\n";
        for (const auto &b : reader.blocks())
            std::cout << b.offset << ',' << b.recordCount << ','
                      << b.firstTick << ',' << b.lastTick << ','
                      << b.componentMask << '\n';
        return 0;
    }
    if (cmd == "export-csv") {
        if (argc != 4)
            return usage();
        std::ofstream out(argv[3], std::ios::binary);
        if (!out) {
            std::cerr << "javelin-trace: cannot open " << argv[3]
                      << "\n";
            return 2;
        }
        TraceReader reader(path);
        writeCsv(out, reader,
                 reader.kind() == tracefmt::RecordKind::Power
                     ? reader.readPower()
                     : PowerTrace(),
                 reader.kind() == tracefmt::RecordKind::Perf
                     ? reader.readPerf()
                     : PerfTrace());
        std::cerr << "javelin-trace: wrote " << argv[3] << " ("
                  << reader.recordCount() << " records"
                  << (reader.torn() ? ", torn tail dropped" : "")
                  << ")\n";
        return 0;
    }
    if (cmd == "range") {
        Tick from = 0, to = 0;
        if (argc != 5 || !SweepRunner::parseCount(argv[3], from) ||
            !SweepRunner::parseCount(argv[4], to))
            return usage();
        TraceReader reader(path);
        writeCsv(std::cout, reader,
                 reader.kind() == tracefmt::RecordKind::Power
                     ? reader.readPowerRange(from, to)
                     : PowerTrace(),
                 reader.kind() == tracefmt::RecordKind::Perf
                     ? reader.readPerfRange(from, to)
                     : PerfTrace());
        return 0;
    }
    return usage();
} catch (const TraceError &e) {
    std::cerr << "javelin-trace: " << e.what() << "\n";
    return 1;
}
