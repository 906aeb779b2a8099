#include "jvm/gc/collector.hh"

#include <algorithm>

#include "jvm/gc/gencopy.hh"
#include "jvm/gc/genms.hh"
#include "jvm/gc/incremental_ms.hh"
#include "jvm/gc/marksweep.hh"
#include "jvm/gc/semispace.hh"
#include "util/logging.hh"

namespace javelin {
namespace jvm {

void
chargeGcWork(sim::System &system, std::uint32_t micro_ops,
             Address code_addr)
{
    system.cpu().execute(micro_ops, code_addr, micro_ops * 4);
    system.cpu().stall(micro_ops *
                       system.spec().cpu.gcStallPerUop);
}

GcCostTable
GcCostTable::make(const sim::System &system)
{
    const double perUop = system.spec().cpu.gcStallPerUop;
    GcCostTable t;
    t.stallPerUop = perUop;
    const auto spec = [perUop](std::uint32_t uops, Address code) {
        // Same operands as one chargeGcWork(uops, code) call: code
        // footprint uops*4 and stall uops*gcStallPerUop (one uint32 x
        // double product, so the prefolded double is bit-identical).
        return GcCostTable::PhaseCost{uops, uops * 4, code,
                                      uops * perUop};
    };
    t.specs[kSpecMarkObject] = spec(gc_costs::kMarkPerObject, kGcMarkCode);
    t.specs[kSpecMarkEdge] = spec(gc_costs::kMarkPerEdge, kGcMarkCode);
    t.specs[kSpecScanObject] = spec(gc_costs::kScanPerObject, kGcScanCode);
    t.specs[kSpecScanSlot] = spec(gc_costs::kScanPerSlot, kGcScanCode);
    t.specs[kSpecSweepCell] = spec(gc_costs::kSweepPerCell, kGcSweepCode);
    return t;
}

std::uint64_t
gcPollFreeUnits(sim::System &system)
{
    const sim::CpuModel &cpu = system.cpu();
    const Tick due = system.nextTaskDue();
    const Tick now = cpu.now();
    if (due <= now)
        return 0; // a task is due: poll at the next opportunity
    const Tick slack = due - now;

    // Conservative bound on how far one burst unit can advance time.
    // A unit is one deferred op; oversized kExecN charges count
    // 1 + uops/64 units, so a unit covers at most a 64-uop execute
    // (with its fetch accesses — 256 code bytes span at most 5 lines
    // at 64-byte lines, fewer at larger) plus its dependence stall,
    // or one data access. Every access takes its worst-case penalty
    // (L1 dirty victim, L2 miss with dirty victim, DRAM, prefetch
    // catch-up) and stalls are never overlapped, exactly as in
    // Interpreter::pollFreeIterations. The true advance is strictly
    // smaller, so polls skipped inside the budget are provably no-ops.
    const auto &mem = system.memory().config();
    const double maxPenalty =
        2.0 * mem.writebackCycles + mem.l2HitCycles +
        static_cast<double>(mem.dramCycles) +
        static_cast<double>(mem.dramCycles) / 3.0;
    const double penaltyScale =
        std::max(1.0, cpu.config().memStallFactor);
    const double maxCycles =
        65.0 * (cpu.config().baseCpi + cpu.config().gcStallPerUop) +
        6.0 * maxPenalty * penaltyScale + 16.0;
    const double maxTicksPerUnit =
        maxCycles * cpu.effectivePeriodTicks() * 1.0625 + 2.0;

    const double units = static_cast<double>(slack) / maxTicksPerUnit;
    if (units >= 4.0e9)
        return 0xFFFFFFFFu;
    return static_cast<std::uint64_t>(units);
}

const char *
collectorName(CollectorKind kind)
{
    switch (kind) {
      case CollectorKind::SemiSpace:
        return "SemiSpace";
      case CollectorKind::MarkSweep:
        return "MarkSweep";
      case CollectorKind::GenCopy:
        return "GenCopy";
      case CollectorKind::GenMS:
        return "GenMS";
      case CollectorKind::IncrementalMS:
        return "IncMS";
    }
    JAVELIN_PANIC("bad collector kind");
}

std::unique_ptr<Collector>
makeCollector(CollectorKind kind, const GcEnv &env)
{
    switch (kind) {
      case CollectorKind::SemiSpace:
        return std::make_unique<SemiSpaceCollector>(env);
      case CollectorKind::MarkSweep:
        return std::make_unique<MarkSweepCollector>(env);
      case CollectorKind::GenCopy:
        return std::make_unique<GenCopyCollector>(env);
      case CollectorKind::GenMS:
        return std::make_unique<GenMSCollector>(env);
      case CollectorKind::IncrementalMS:
        return std::make_unique<IncrementalMSCollector>(env);
    }
    JAVELIN_PANIC("bad collector kind");
}

} // namespace jvm
} // namespace javelin
