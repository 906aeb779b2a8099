/**
 * @file
 * Running mean/min/max/variance accumulator (Welford) used throughout
 * the simulator.
 */

#ifndef JAVELIN_UTIL_STATS_HH
#define JAVELIN_UTIL_STATS_HH

#include <cstdint>
#include <limits>

namespace javelin {

/**
 * Single-pass mean / variance / extrema accumulator (Welford's method).
 */
class RunningStat
{
  public:
    /** Add one observation. */
    void add(double x);

    /** Reset to the empty state. */
    void reset();

    std::uint64_t count() const { return n_; }
    double mean() const { return n_ ? mean_ : 0.0; }
    double variance() const;
    double stddev() const;
    /** Smallest observation; NaN when empty (not a real observation). */
    double min() const;
    /** Largest observation; NaN when empty (not a real observation). */
    double max() const;
    double sum() const { return sum_; }

  private:
    std::uint64_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double sum_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

} // namespace javelin

#endif // JAVELIN_UTIL_STATS_HH
