#include "workloads/service.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace javelin {
namespace workloads {

namespace {

/** Bursty: on-phase rate multiplier. */
constexpr double kBurstFactor = 3.0;
/** Bursty: fraction of the cycle spent in the on-phase. */
constexpr double kBurstFraction = 0.25;
/** Diurnal: relative amplitude of the sinusoid. */
constexpr double kDiurnalAmplitude = 0.8;
/** Bursty/Diurnal: modulation period (simulated seconds). */
constexpr double kCyclePeriodSec = 0.02;

// The off-phase keeps a positive rate, so the thinning loop always
// terminates, and the sinusoid never drives the rate below zero.
static_assert(kBurstFactor >= 1.0 && kBurstFraction * kBurstFactor < 1.0);
static_assert(kDiurnalAmplitude >= 0.0 && kDiurnalAmplitude < 1.0);

} // namespace

const char *
arrivalKindName(ArrivalKind kind)
{
    switch (kind) {
      case ArrivalKind::Poisson:
        return "Poisson";
      case ArrivalKind::Bursty:
        return "Bursty";
      case ArrivalKind::Diurnal:
        return "Diurnal";
    }
    JAVELIN_PANIC("bad arrival kind");
}

bool
parseArrivalKind(const std::string &name, ArrivalKind *out)
{
    if (name == "Poisson")
        *out = ArrivalKind::Poisson;
    else if (name == "Bursty")
        *out = ArrivalKind::Bursty;
    else if (name == "Diurnal")
        *out = ArrivalKind::Diurnal;
    else
        return false;
    return true;
}

ArrivalProcess::ArrivalProcess(const ArrivalConfig &config,
                               std::uint64_t seed)
    : config_(config), rng_(seed)
{
    JAVELIN_ASSERT(config_.ratePerSec > 0.0,
                   "arrival rate must be positive");
    switch (config_.kind) {
      case ArrivalKind::Poisson:
        peakRate_ = config_.ratePerSec;
        break;
      case ArrivalKind::Bursty:
        peakRate_ = config_.ratePerSec * kBurstFactor;
        break;
      case ArrivalKind::Diurnal:
        peakRate_ = config_.ratePerSec * (1.0 + kDiurnalAmplitude);
        break;
    }
}

double
ArrivalProcess::rateAt(double t_sec) const
{
    const double rate = config_.ratePerSec;
    switch (config_.kind) {
      case ArrivalKind::Poisson:
        return rate;
      case ArrivalKind::Bursty: {
        // Square wave, mean rate preserved: the on-phase runs at
        // kBurstFactor * rate for kBurstFraction of the cycle, the
        // off-phase absorbs the remainder.
        const double phase =
            std::fmod(t_sec, kCyclePeriodSec) / kCyclePeriodSec;
        if (phase < kBurstFraction)
            return rate * kBurstFactor;
        return rate * (1.0 - kBurstFraction * kBurstFactor) /
               (1.0 - kBurstFraction);
      }
      case ArrivalKind::Diurnal: {
        const double w = 2.0 * 3.14159265358979323846 / kCyclePeriodSec;
        return rate * (1.0 + kDiurnalAmplitude * std::sin(w * t_sec));
      }
    }
    JAVELIN_PANIC("bad arrival kind");
}

Tick
ArrivalProcess::next()
{
    // Lewis-Shedler thinning: candidate gaps at the peak rate, each
    // accepted with probability rate(t)/peak. Both draws happen on
    // every candidate so the stream's consumption pattern is fixed.
    for (;;) {
        tSec_ += rng_.exponential(1.0 / peakRate_);
        const double accept = rateAt(tSec_) / peakRate_;
        if (rng_.uniform() < accept) {
            // Floor at one tick of progress so the timeline is
            // strictly increasing even at absurd rates.
            const Tick t = secondsToTicks(tSec_);
            lastTick_ = std::max(t, lastTick_ + 1);
            return lastTick_;
        }
    }
}

} // namespace workloads
} // namespace javelin
