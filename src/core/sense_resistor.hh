/**
 * @file
 * Precision sense-resistor current measurement (paper Section IV-D).
 *
 * Current is measured indirectly: a small precision resistor sits in
 * series with the supply rail and the DAQ samples the voltage drop across
 * it, so I = V_drop / R. The model converts the power model's true power
 * into a measured current, with optional gaussian measurement noise, so
 * the acquisition error budget of a real rig can be reproduced and
 * studied.
 */

#ifndef JAVELIN_CORE_SENSE_RESISTOR_HH
#define JAVELIN_CORE_SENSE_RESISTOR_HH

#include "util/random.hh"

namespace javelin {
namespace core {

/**
 * One 10 mOhm sense-resistor channel.
 */
class SenseResistor
{
  public:
    struct Config
    {
        /** Gaussian noise on the sampled drop voltage (volts RMS). */
        double noiseVoltsRms = 0.0;
        /** Noise stream seed. */
        std::uint64_t seed = 12345;
    };

    explicit SenseResistor(const Config &config);

    /**
     * Measure the current implied by (true_watts, rail_volts).
     * @return measured amps after noise.
     */
    double measureAmps(double true_watts, double rail_volts);

    /** Convenience: measured power = measured amps * rail volts. */
    double measureWatts(double true_watts, double rail_volts);

  private:
    Config config_;
    Rng rng_;
};

} // namespace core
} // namespace javelin

#endif // JAVELIN_CORE_SENSE_RESISTOR_HH
