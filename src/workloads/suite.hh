/**
 * @file
 * Registry of the paper's benchmark selection (Fig. 5): seven SpecJVM98
 * applications, five DaCapo applications, and four Java Grande Forum
 * kernels, each as a calibrated BenchmarkProfile.
 */

#ifndef JAVELIN_WORKLOADS_SUITE_HH
#define JAVELIN_WORKLOADS_SUITE_HH

#include <vector>

#include "workloads/profile.hh"

namespace javelin {
namespace workloads {

/** All paper benchmarks, in paper order. */
const std::vector<BenchmarkProfile> &allBenchmarks();

/** Synthetic stress profiles (e.g. "call_heavy"): resolvable via
 *  benchmark() but excluded from the paper matrices above. */
const std::vector<BenchmarkProfile> &syntheticBenchmarks();

/** Look up one benchmark (paper or synthetic) by name; throws
 *  std::invalid_argument ("unknown benchmark: NAME") if unknown. */
const BenchmarkProfile &benchmark(const std::string &name);

/** Benchmarks belonging to one suite ("SpecJVM98", "DaCapo", "JGF"). */
std::vector<BenchmarkProfile> suiteBenchmarks(const std::string &suite);

/** The five SpecJVM98 benchmarks used in the PXA255 study (VI-E). */
std::vector<BenchmarkProfile> embeddedBenchmarks();

} // namespace workloads
} // namespace javelin

#endif // JAVELIN_WORKLOADS_SUITE_HH
