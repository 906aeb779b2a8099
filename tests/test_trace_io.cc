/**
 * @file
 * Tests for trace CSV export: columns, and doubles written exactly.
 */

#include <gtest/gtest.h>

#include <bit>
#include <charconv>
#include <sstream>
#include <string>
#include <vector>

#include "core/trace_io.hh"

using namespace javelin;
using namespace javelin::core;

namespace {

PowerTrace
sampleTrace()
{
    PowerTrace t;
    for (int i = 0; i < 5; ++i) {
        PowerSample s;
        s.tick = static_cast<Tick>(i) * 40 * kTicksPerMicro;
        s.windowTicks = i == 2 ? 0 : 40 * kTicksPerMicro;
        s.cpuWatts = 10.0 + i * 0.5;
        s.memWatts = 0.25 + i * 0.01;
        s.component = i % 2 ? ComponentId::Gc : ComponentId::App;
        t.push_back(s);
    }
    return t;
}

} // namespace

TEST(TraceIo, PowerCsvHasHeaderAndRows)
{
    std::ostringstream os;
    writePowerCsv(os, sampleTrace());
    const std::string csv = os.str();
    EXPECT_NE(csv.find("tick,us,window_ticks,cpu_watts,mem_watts,"
                       "component"),
              std::string::npos);
    EXPECT_NE(csv.find(",GC"), std::string::npos);
    EXPECT_NE(csv.find(",App"), std::string::npos);
    // 1 header + 5 data rows
    EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 6);
}

TEST(TraceIo, PowerRoundTripIsExact)
{
    // Values with no finite decimal expansion: the writer emits the
    // shortest string that parses back to the same bits, so the
    // watts fields must read back with EXACT bit equality. Every
    // other column varies by row too, so a writer that drops, swaps
    // or misplaces a field fails on the row it got wrong.
    PowerTrace original;
    for (int i = 1; i <= 200; ++i) {
        PowerSample s;
        s.tick = static_cast<Tick>(i) * 40 * kTicksPerMicro + i % 3;
        s.windowTicks =
            i % 4 == 0 ? 0 : (40 + static_cast<Tick>(i)) * kTicksPerMicro;
        s.cpuWatts = 1.0 / 3.0 * i + 0.1;
        s.memWatts = 2.0 / 7.0 * i;
        s.component = static_cast<ComponentId>(i % kNumComponents);
        original.push_back(s);
    }
    std::stringstream ss;
    writePowerCsv(ss, original);

    const auto parseDouble = [](const std::string &field) {
        double v = 0.0;
        const auto res = std::from_chars(
            field.data(), field.data() + field.size(), v);
        EXPECT_TRUE(res.ec == std::errc() &&
                    res.ptr == field.data() + field.size())
            << "field '" << field << "'";
        return v;
    };
    std::string line;
    ASSERT_TRUE(std::getline(ss, line));
    std::size_t row = 0;
    while (std::getline(ss, line)) {
        ASSERT_LT(row, original.size());
        std::vector<std::string> fields;
        std::istringstream ls(line);
        for (std::string f; std::getline(ls, f, ',');)
            fields.push_back(f);
        ASSERT_EQ(fields.size(), 6u) << "row " << row;
        // fields: tick,us,window_ticks,cpu_watts,mem_watts,component
        EXPECT_EQ(fields[0], std::to_string(original[row].tick))
            << "row " << row;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(parseDouble(fields[1])),
                  std::bit_cast<std::uint64_t>(
                      static_cast<double>(original[row].tick) /
                      kTicksPerMicro))
            << "row " << row;
        EXPECT_EQ(fields[2], std::to_string(original[row].windowTicks))
            << "row " << row;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(parseDouble(fields[3])),
                  std::bit_cast<std::uint64_t>(original[row].cpuWatts))
            << "row " << row;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(parseDouble(fields[4])),
                  std::bit_cast<std::uint64_t>(original[row].memWatts))
            << "row " << row;
        EXPECT_EQ(fields[5], componentName(original[row].component))
            << "row " << row;
        ++row;
    }
    EXPECT_EQ(row, original.size());
}

TEST(TraceIo, PerfCsvColumns)
{
    PerfTrace t;
    PerfSample s;
    s.tick = 1000;
    s.component = ComponentId::Gc;
    s.delta.cycles = 100;
    s.delta.instructions = 55;
    s.delta.l2Accesses = 10;
    s.delta.l2Misses = 5;
    t.push_back(s);

    std::ostringstream os;
    writePerfCsv(os, t);
    const std::string csv = os.str();
    EXPECT_NE(csv.find("ipc,l2_miss_rate"), std::string::npos);
    EXPECT_NE(csv.find("GC,100,55"), std::string::npos);
    EXPECT_NE(csv.find("0.55"), std::string::npos); // IPC
    EXPECT_NE(csv.find("0.5"), std::string::npos);  // miss rate
}
