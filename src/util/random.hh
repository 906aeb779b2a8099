/**
 * @file
 * Deterministic pseudo-random number generation and distributions.
 *
 * All stochastic behaviour in javelin flows through Rng so that every
 * experiment is exactly reproducible from its seed. The generator is
 * xoshiro256** seeded through SplitMix64, which gives independent,
 * high-quality streams from small integer seeds.
 */

#ifndef JAVELIN_UTIL_RANDOM_HH
#define JAVELIN_UTIL_RANDOM_HH

#include <cstdint>

namespace javelin {

/**
 * Deterministic random number generator with common distributions.
 */
class Rng
{
  public:
    /** Construct from a small seed; any value (including 0) is valid. */
    explicit Rng(std::uint64_t seed = 1);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform integer in [0, bound). bound must be > 0. */
    std::uint64_t uniformInt(std::uint64_t bound);

    /** Bernoulli trial: true with probability p. */
    bool bernoulli(double p);

    /** Exponentially distributed value with the given mean. */
    double exponential(double mean);

    /** Normally distributed value (Box-Muller). */
    double normal(double mean, double stddev);

  private:
    std::uint64_t s_[4];
    bool hasSpareNormal_ = false;
    double spareNormal_ = 0.0;
};

} // namespace javelin

#endif // JAVELIN_UTIL_RANDOM_HH
