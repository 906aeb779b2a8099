#include "util/stats.hh"

#include <algorithm>
#include <cmath>

namespace javelin {

void
RunningStat::add(double x)
{
    ++n_;
    sum_ += x;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
}

void
RunningStat::reset()
{
    *this = RunningStat();
}

double
RunningStat::variance() const
{
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double
RunningStat::stddev() const
{
    return std::sqrt(variance());
}

double
RunningStat::min() const
{
    // NaN, not 0.0: an empty accumulator must not masquerade as a real
    // observation in reports (0 J would read as a measured minimum).
    return n_ ? min_ : std::numeric_limits<double>::quiet_NaN();
}

double
RunningStat::max() const
{
    return n_ ? max_ : std::numeric_limits<double>::quiet_NaN();
}

} // namespace javelin
