#include "sim/platform.hh"

#include "util/logging.hh"

namespace javelin {
namespace sim {

PlatformSpec
p6Spec()
{
    PlatformSpec spec;
    spec.name = "P6 (Pentium M 1.6GHz)";
    spec.kind = PlatformKind::P6;

    spec.cpu.name = "pentium-m";
    spec.cpu.freqHz = 1.6e9;
    // Three-decode front end, but sustained throughput well below that;
    // 0.45 cycles per micro-op gives a ~2.2 peak IPC before stalls.
    spec.cpu.baseCpi = 0.45;
    // Out-of-order core overlaps a large part of miss latency.
    spec.cpu.memStallFactor = 0.7;
    spec.cpu.branchPenalty = 10;
    spec.cpu.gcStallPerUop = 0.55;

    spec.memory.l1i = {"l1i", 32 * kKiB, 8, 64};
    spec.memory.l1d = {"l1d", 32 * kKiB, 8, 64};
    spec.memory.l2 = Cache::Config{"l2", 1 * kMiB, 8, 64};
    spec.memory.l2HitCycles = 9;
    spec.memory.dramCycles = 180;   // ~112 ns at 1.6 GHz
    spec.memory.writebackCycles = 4;
    spec.memory.nextLinePrefetch = true;

    // Calibrated so application-like activity (IPC ~0.8) draws ~13 W and
    // GC-like pointer chasing (IPC ~0.55) draws ~1 W less, on top of the
    // paper's measured 4.5 W idle. See bench/tab_component_stats.
    spec.power.idleWatts = 4.5;
    spec.power.nominalVolts = 1.484;
    spec.power.nominalFreqHz = 1.6e9;
    spec.power.epInstr = 5.4e-9;
    spec.power.epStallCycle = 0.5e-9;
    spec.power.epL1d = 0.8e-9;
    spec.power.epL1i = 0.45e-9;
    spec.power.epL2 = 5.0e-9;
    // Next-line prefetcher tag probe (ROADMAP §5c model fix): reads the
    // L2 tag array only, so ~30% of a full L2 access.
    spec.power.epL2Probe = 1.5e-9;
    spec.power.epDram = 12.0e-9;

    spec.memPower.idleWatts = 0.25;
    spec.memPower.supplyVolts = 2.5;
    spec.memPower.epAccess = 35.0e-9;

    // Fan-on steady state near 60 C at ~12.5 W (Fig. 1); fan-off steady
    // state well above the 99 C trip point, reached in about 240 s.
    spec.thermal.ambientC = 25.0;
    spec.thermal.rFanOnCperW = 2.8;
    spec.thermal.rFanOffCperW = 8.0;
    spec.thermal.capacitanceJperC = 22.0;
    spec.thermal.throttleOnC = 99.0;
    spec.thermal.throttleOffC = 97.0;
    spec.thermal.throttleDuty = 0.5;

    // Pentium M 725-style P-states (highest performance last).
    spec.dvfsPoints = {
        {0.6e9, 0.956}, {0.8e9, 1.036}, {1.0e9, 1.164},
        {1.2e9, 1.276}, {1.4e9, 1.420}, {1.6e9, 1.484},
    };

    spec.hpmPeriod = kTicksPerMilli;        // 1 ms OS timer
    spec.daqPeriod = 40 * kTicksPerMicro;   // 40 us DAQ
    spec.thermalPeriod = 200 * kTicksPerMicro;
    return spec;
}

PlatformSpec
pxa255Spec()
{
    PlatformSpec spec;
    spec.name = "DBPXA255 (Intel PXA255 400MHz)";
    spec.kind = PlatformKind::Pxa255;

    spec.cpu.name = "pxa255";
    spec.cpu.freqHz = 400e6;
    spec.cpu.baseCpi = 1.15;        // single-issue in-order
    spec.cpu.memStallFactor = 1.0;  // no overlap: stalls fully exposed
    spec.cpu.branchPenalty = 4;
    spec.cpu.gcStallPerUop = 0.05;  // in-order: GC no worse than mutator

    spec.memory.l1i = {"l1i", 32 * kKiB, 32, 32};
    spec.memory.l1d = {"l1d", 32 * kKiB, 32, 32};
    spec.memory.l2.reset();         // no L2 cache on the PXA255
    spec.memory.dramCycles = 24;    // ~60 ns SDRAM at 400 MHz
    spec.memory.writebackCycles = 6;

    // 70 mW measured idle; dynamic energies sized so a busy core draws a
    // few hundred milliwatts, with memory traffic relatively cheap in
    // stall terms but visible in energy (XScale-class behaviour).
    spec.power.idleWatts = 0.070;
    spec.power.nominalVolts = 1.3;
    spec.power.nominalFreqHz = 400e6;
    spec.power.epInstr = 0.60e-9;
    spec.power.epStallCycle = 0.15e-9;
    spec.power.epL1d = 0.10e-9;
    spec.power.epL1i = 0.06e-9;
    spec.power.epL2 = 0.0;
    spec.power.epL2Probe = 0.0; // no L2, no prefetcher
    spec.power.epDram = 4.0e-9;

    spec.memPower.idleWatts = 0.005;
    spec.memPower.supplyVolts = 3.3;
    spec.memPower.epAccess = 12.0e-9;

    // Passively cooled; generous headroom (the PXA255 has no emergency
    // throttle in practice at these power levels).
    spec.thermal.ambientC = 25.0;
    spec.thermal.rFanOnCperW = 30.0;
    spec.thermal.rFanOffCperW = 60.0;
    spec.thermal.capacitanceJperC = 4.0;
    spec.thermal.throttleOnC = 99.0;
    spec.thermal.throttleOffC = 97.0;
    spec.thermal.throttleDuty = 0.5;

    spec.dvfsPoints = {
        {100e6, 0.85}, {200e6, 1.0}, {300e6, 1.1}, {400e6, 1.3},
    };

    spec.hpmPeriod = 10 * kTicksPerMilli;   // 10 ms OS timer
    spec.daqPeriod = 40 * kTicksPerMicro;
    spec.thermalPeriod = 500 * kTicksPerMicro;
    return spec;
}

const char *
platformName(PlatformKind kind)
{
    return kind == PlatformKind::P6 ? "P6" : "PXA255";
}

PlatformSpec
platformSpec(PlatformKind kind)
{
    switch (kind) {
      case PlatformKind::P6:
        return p6Spec();
      case PlatformKind::Pxa255:
        return pxa255Spec();
    }
    JAVELIN_PANIC("unknown platform kind");
}

} // namespace sim
} // namespace javelin
