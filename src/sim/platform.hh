/**
 * @file
 * Platform specifications for the paper's two measurement targets.
 *
 * P6: a 1.6 GHz Pentium M development board with 512 MB RAM, 32 KB L1I,
 * 32 KB write-back L1D and a 1 MB on-die L2 (paper Section IV-B), with
 * measured idle powers of about 4.5 W (CPU) and 250 mW (RAM).
 *
 * DBPXA255: an Intel PXA255 development board at 400 MHz, single-issue
 * in-order, 32-way 32 KB I and D caches, no L2, 64 MB SDRAM; idle powers
 * about 70 mW (CPU) and 5 mW (memory).
 */

#ifndef JAVELIN_SIM_PLATFORM_HH
#define JAVELIN_SIM_PLATFORM_HH

#include <string>
#include <vector>

#include "sim/cpu_model.hh"
#include "sim/dvfs.hh"
#include "sim/memory_hierarchy.hh"
#include "sim/memory_power.hh"
#include "sim/power_model.hh"
#include "sim/thermal.hh"
#include "util/units.hh"

namespace javelin {
namespace sim {

/** Which of the paper's boards a spec describes. */
enum class PlatformKind { P6, Pxa255 };

/** Short name of a board ("P6", "PXA255"), as used in scenario files,
 *  shard keys and ensemble cell keys. */
const char *platformName(PlatformKind kind);

/**
 * Complete description of one hardware platform.
 */
struct PlatformSpec
{
    std::string name;
    PlatformKind kind;
    CpuModel::Config cpu;
    MemoryHierarchy::Config memory;
    PowerModel::Config power;
    MemoryPowerModel::Config memPower;
    ThermalModel::Config thermal;
    std::vector<OperatingPoint> dvfsPoints;
    /** OS-timer HPM sampling period (1 ms on P6, 10 ms on PXA255). */
    Tick hpmPeriod = kTicksPerMilli;
    /** DAQ sampling period (40 us in the paper). */
    Tick daqPeriod = 40 * kTicksPerMicro;
    /** Thermal integration step. */
    Tick thermalPeriod = 200 * kTicksPerMicro;
};

/** The Pentium M development board (paper Fig. 2). */
PlatformSpec p6Spec();

/** The Intel DBPXA255 development board. */
PlatformSpec pxa255Spec();

/** Look up a spec by kind. */
PlatformSpec platformSpec(PlatformKind kind);

} // namespace sim
} // namespace javelin

#endif // JAVELIN_SIM_PLATFORM_HH
