#include "util/bootstrap.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "util/kahan.hh"
#include "util/logging.hh"
#include "util/random.hh"

namespace javelin {

double
meanOf(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    NeumaierSum sum;
    for (const double x : xs)
        sum.add(x);
    return sum.value() / static_cast<double>(xs.size());
}

double
quantileOf(std::vector<double> xs, double q)
{
    JAVELIN_ASSERT(q >= 0.0 && q <= 1.0, "quantile out of range");
    if (xs.empty())
        return std::numeric_limits<double>::quiet_NaN();
    std::sort(xs.begin(), xs.end());
    // Type-7 estimator: index h = q * (n - 1), linear between ranks.
    const double h = q * static_cast<double>(xs.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(h));
    const auto hi = std::min(lo + 1, xs.size() - 1);
    const double frac = h - std::floor(h);
    return xs[lo] + frac * (xs[hi] - xs[lo]);
}

BootstrapCi
bootstrapMeanCi(const std::vector<double> &xs, std::size_t resamples,
                double confidence, std::uint64_t seed)
{
    JAVELIN_ASSERT(confidence > 0.0 && confidence < 1.0,
                   "confidence must be in (0, 1)");
    BootstrapCi ci;
    ci.confidence = confidence;
    ci.resamples = resamples;
    if (xs.empty()) {
        ci.point = ci.lo = ci.hi =
            std::numeric_limits<double>::quiet_NaN();
        return ci;
    }
    ci.point = meanOf(xs);
    if (xs.size() < 2 || resamples == 0) {
        ci.lo = ci.hi = ci.point;
        return ci;
    }

    Rng rng(seed);
    std::vector<double> resample(xs.size());
    std::vector<double> stats;
    stats.reserve(resamples);
    for (std::size_t r = 0; r < resamples; ++r) {
        for (auto &slot : resample)
            slot = xs[rng.uniformInt(xs.size())];
        stats.push_back(meanOf(resample));
    }
    const double alpha = 1.0 - confidence;
    ci.lo = quantileOf(stats, alpha / 2.0);
    ci.hi = quantileOf(std::move(stats), 1.0 - alpha / 2.0);
    return ci;
}

double
mannWhitneyP(const std::vector<double> &a, const std::vector<double> &b)
{
    const std::size_t na = a.size();
    const std::size_t nb = b.size();
    if (na == 0 || nb == 0)
        return 1.0;

    // Pool, sort, and assign midranks to ties.
    struct Tagged
    {
        double value;
        bool fromA;
    };
    std::vector<Tagged> pooled;
    pooled.reserve(na + nb);
    for (const double x : a)
        pooled.push_back({x, true});
    for (const double x : b)
        pooled.push_back({x, false});
    std::sort(pooled.begin(), pooled.end(),
              [](const Tagged &l, const Tagged &r) {
                  return l.value < r.value;
              });

    const double n = static_cast<double>(na + nb);
    double rankSumA = 0.0;
    double tieCorrection = 0.0; // sum of t^3 - t over tie groups
    std::size_t i = 0;
    while (i < pooled.size()) {
        std::size_t j = i;
        while (j < pooled.size() && pooled[j].value == pooled[i].value)
            ++j;
        // Ranks are 1-based: group [i, j) shares the average rank.
        const double midrank =
            (static_cast<double>(i + 1) + static_cast<double>(j)) / 2.0;
        const auto t = static_cast<double>(j - i);
        tieCorrection += t * t * t - t;
        for (std::size_t k = i; k < j; ++k)
            if (pooled[k].fromA)
                rankSumA += midrank;
        i = j;
    }

    const double nad = static_cast<double>(na);
    const double nbd = static_cast<double>(nb);
    const double u = rankSumA - nad * (nad + 1.0) / 2.0;
    const double meanU = nad * nbd / 2.0;
    const double variance =
        nad * nbd / 12.0 *
        ((n + 1.0) - tieCorrection / (n * (n - 1.0)));
    if (variance <= 0.0)
        return 1.0; // every observation tied: no evidence either way
    // Continuity correction toward the mean.
    const double shifted = std::abs(u - meanU) - 0.5;
    const double z = std::max(shifted, 0.0) / std::sqrt(variance);
    const double p = std::erfc(z / std::sqrt(2.0)); // two-sided
    return std::clamp(p, 0.0, 1.0);
}

} // namespace javelin
