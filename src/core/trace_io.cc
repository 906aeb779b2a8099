#include "core/trace_io.hh"

#include <charconv>
#include <ostream>

#include "util/units.hh"

namespace javelin {
namespace core {

namespace {

/**
 * Shortest representation that round-trips the exact double
 * (std::to_chars with no precision argument), so a written trace
 * parses back bit-identical — default ostream precision (6) loses
 * low-order bits on every power value.
 */
void
writeDouble(std::ostream &os, double v)
{
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    os.write(buf, res.ptr - buf);
}

} // namespace

void
writePowerCsv(std::ostream &os, const PowerTrace &trace)
{
    os << "tick,us,window_ticks,cpu_watts,mem_watts,component\n";
    for (const auto &s : trace) {
        os << s.tick << ',';
        writeDouble(os, static_cast<double>(s.tick) / kTicksPerMicro);
        os << ',' << s.windowTicks << ',';
        writeDouble(os, s.cpuWatts);
        os << ',';
        writeDouble(os, s.memWatts);
        os << ',' << componentName(s.component) << '\n';
    }
}

void
writePerfCsv(std::ostream &os, const PerfTrace &trace)
{
    os << "tick,component,cycles,instructions,stall_cycles,"
          "l1d_accesses,l1d_misses,l2_accesses,l2_misses,"
          "dram_accesses,ipc,l2_miss_rate\n";
    for (const auto &s : trace) {
        const auto &d = s.delta;
        os << s.tick << ',' << componentName(s.component) << ','
           << d.cycles << ',' << d.instructions << ',' << d.stallCycles
           << ',' << d.l1dAccesses << ',' << d.l1dMisses << ','
           << d.l2Accesses << ',' << d.l2Misses << ','
           << d.dramAccesses << ',';
        writeDouble(os, d.ipc());
        os << ',';
        writeDouble(os, d.l2MissRate());
        os << '\n';
    }
}

} // namespace core
} // namespace javelin
