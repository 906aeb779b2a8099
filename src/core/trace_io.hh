/**
 * @file
 * Trace export: write the DAQ power trace and the HPM performance
 * trace as CSV (the format the paper's offline analysis consumed, and
 * what a user needs to plot Fig. 1/6/8-style charts from a javelin
 * run). The binary spool (core/trace_spool.hh) is the format javelin
 * reads back; CSV is export only.
 */

#ifndef JAVELIN_CORE_TRACE_IO_HH
#define JAVELIN_CORE_TRACE_IO_HH

#include <iosfwd>

#include "core/traces.hh"

namespace javelin {
namespace core {

/**
 * Write a power trace as CSV:
 * tick,us,window_ticks,cpu_watts,mem_watts,component.
 */
void writePowerCsv(std::ostream &os, const PowerTrace &trace);

/** Write a perf trace as CSV (per-sample counter deltas). */
void writePerfCsv(std::ostream &os, const PerfTrace &trace);

} // namespace core
} // namespace javelin

#endif // JAVELIN_CORE_TRACE_IO_HH
