/**
 * @file
 * Resampling statistics for the energy-regression harness: percentile
 * bootstrap confidence intervals over seed ensembles, and the
 * Mann-Whitney rank test (ROADMAP item 4; Bechet et al., Nyholm et
 * al.). The CI gate's permutation test lives in
 * scripts/compare_ensemble.py.
 *
 * Everything here is deterministic: bootstrap resampling draws from a
 * caller-seeded Rng, so a fixed seed list reproduces every interval
 * and p-value bit for bit.
 */

#ifndef JAVELIN_UTIL_BOOTSTRAP_HH
#define JAVELIN_UTIL_BOOTSTRAP_HH

#include <cstdint>
#include <vector>

namespace javelin {

/** Percentile-method bootstrap confidence interval for one statistic. */
struct BootstrapCi
{
    /** The statistic evaluated on the original sample. */
    double point = 0.0;
    /** Lower/upper CI bounds (percentiles of the resampled statistic). */
    double lo = 0.0;
    double hi = 0.0;
    /** Two-sided confidence level, e.g. 0.95. */
    double confidence = 0.0;
    std::size_t resamples = 0;
};

/** Arithmetic mean (0 for an empty vector). */
double meanOf(const std::vector<double> &xs);

/**
 * Linear-interpolation quantile (the common "type 7" estimator) of a
 * sample, q in [0, 1]. Takes its argument by value and sorts it.
 */
double quantileOf(std::vector<double> xs, double q);

/**
 * Percentile-method bootstrap CI of the mean: resample xs with
 * replacement `resamples` times, take each resample's mean, and return
 * the (alpha/2, 1 - alpha/2) percentiles of those means. Deterministic
 * for a fixed seed. A sample of size < 2 yields the degenerate
 * interval [point, point].
 */
BootstrapCi bootstrapMeanCi(const std::vector<double> &xs,
                            std::size_t resamples, double confidence,
                            std::uint64_t seed);

/**
 * Two-sided Mann-Whitney U test p-value for samples a vs b: the
 * normal approximation with midranks, tie-corrected variance and a
 * 0.5 continuity correction. Returns 1.0 when either sample is empty
 * or the pooled sample has no variation (all ties). Small ensembles
 * (n around 8 per side) are within the approximation's usual range.
 */
double mannWhitneyP(const std::vector<double> &a,
                    const std::vector<double> &b);

} // namespace javelin

#endif // JAVELIN_UTIL_BOOTSTRAP_HH
