/**
 * @file
 * Report helpers shared by the figure-reproduction benches: paper-style
 * component labels, energy-decomposition tables, EDP tables.
 */

#ifndef JAVELIN_HARNESS_REPORT_HH
#define JAVELIN_HARNESS_REPORT_HH

#include <iosfwd>
#include <vector>

#include "harness/sweep.hh"
#include "util/table.hh"

namespace javelin {
namespace harness {

/** Components shown for a Jikes decomposition (paper Fig. 6 order). */
std::vector<core::ComponentId> jikesComponents();

/** Components shown for a Kaffe decomposition (paper Fig. 9/11). */
std::vector<core::ComponentId> kaffeComponents();

/**
 * Energy-decomposition table: one row per result, one column per
 * component with the percentage of total CPU energy.
 */
Table energyDecompositionTable(
    const std::vector<ExperimentResult> &results,
    const std::vector<core::ComponentId> &components);

/**
 * EDP table: rows = benchmarks, columns = heap sizes, one table per
 * collector is typical. "OOM" marks configurations that did not fit
 * (the reason the paper reports DaCapo only from 48 MB).
 */
Table edpTable(const std::vector<std::vector<ExperimentResult>> &rows,
               const std::vector<std::uint32_t> &heaps_mb);

/**
 * Average/peak power table per component (paper Fig. 8).
 */
Table powerTable(const std::vector<ExperimentResult> &results,
                 const std::vector<core::ComponentId> &components);

/** Echo an experiment one-liner (benchmark, config, headline numbers). */
void printRunSummary(std::ostream &os, const ExperimentResult &res);

/**
 * Surface every failed sweep result (shard key + error()) on os;
 * returns the failure count. Drivers call this instead of silently
 * indexing the results — a worker exception must never disappear into
 * a table of zeros.
 */
std::size_t reportSweepFailures(std::ostream &os,
                                const std::vector<SweepTask> &tasks,
                                const std::vector<ExperimentResult> &results);

} // namespace harness
} // namespace javelin

#endif // JAVELIN_HARNESS_REPORT_HH
