#include "core/sense_resistor.hh"

#include "util/logging.hh"

namespace javelin {
namespace core {

namespace {

/** Sense resistance in ohms (milliohm-class in practice). */
constexpr double kSenseOhms = 0.010;

} // namespace

SenseResistor::SenseResistor(const Config &config)
    : config_(config), rng_(config.seed)
{
}

double
SenseResistor::measureAmps(double true_watts, double rail_volts)
{
    JAVELIN_ASSERT(rail_volts > 0, "bad rail voltage");
    const double true_amps = true_watts / rail_volts;
    double drop = true_amps * kSenseOhms;
    if (config_.noiseVoltsRms > 0)
        drop += rng_.normal(0.0, config_.noiseVoltsRms);
    return drop / kSenseOhms;
}

double
SenseResistor::measureWatts(double true_watts, double rail_volts)
{
    return measureAmps(true_watts, rail_volts) * rail_volts;
}

} // namespace core
} // namespace javelin
