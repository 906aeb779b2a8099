/**
 * @file
 * Garbage collector framework.
 *
 * Javelin implements the paper's full collector matrix (Fig. 3):
 * non-generational SemiSpace and MarkSweep, generational GenCopy and
 * GenMS (Jikes RVM / JMTk family), plus Kaffe's incremental conservative
 * tri-colour mark-sweep. Collectors operate on the *simulated* heap:
 * every header touch, copy, mark and sweep turns into cache traffic and
 * cycles on the CPU model, so per-collector power/energy behaviour is an
 * emergent property rather than a scripted constant.
 */

#ifndef JAVELIN_JVM_GC_COLLECTOR_HH
#define JAVELIN_JVM_GC_COLLECTOR_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "jvm/object_model.hh"
#include "sim/system.hh"

namespace javelin {
namespace jvm {

/**
 * Per-operation micro-op charges for collector work, calibrated to
 * JMTk-era tracing rates (every edge goes through plan dispatch, TIB
 * interrogation and bounds/state tests, putting tracing at several
 * cycles per byte — see Blackburn et al., SIGMETRICS'04). GC code is
 * dominated by short dependent chains, so a stall factor models its
 * inherently low ILP (the paper measures GC IPC ~0.55 vs ~0.8 for the
 * application).
 */
namespace gc_costs {
constexpr std::uint32_t kCopyPerObject = 80;
constexpr std::uint32_t kCopyPer16Bytes = 8;
constexpr std::uint32_t kScanPerObject = 12;
constexpr std::uint32_t kScanPerSlot = 28;
constexpr std::uint32_t kMarkPerObject = 40;
constexpr std::uint32_t kMarkPerEdge = 26;
constexpr std::uint32_t kSweepPerCell = 12;
/**
 * Static code footprint charged per copy invocation (two fetch lines:
 * dispatch prologue + the 16-byte move loop). The copy routine is
 * compact and stays fetch-resident across objects; the historical
 * uops*4 span charged instruction fetch proportional to the *data*
 * moved — an artifact the v2 cost tables remove (DESIGN.md §5e).
 * Retired micro-ops are unchanged.
 */
constexpr std::uint32_t kCopyCodeBytes = 128;
} // namespace gc_costs

/** Charge GC bookkeeping work (micro-ops plus dependence stalls). */
void chargeGcWork(sim::System &system, std::uint32_t micro_ops,
                  Address code_addr);

/** Indices into GcCostTable::specs, one per fixed-cost GC charge. */
enum GcPhaseSpec : std::uint8_t
{
    kSpecMarkObject = 0, ///< gc_costs::kMarkPerObject at kGcMarkCode
    kSpecMarkEdge,       ///< gc_costs::kMarkPerEdge at kGcMarkCode
    kSpecScanObject,     ///< gc_costs::kScanPerObject at kGcScanCode
    kSpecScanSlot,       ///< gc_costs::kScanPerSlot at kGcScanCode
    kSpecSweepCell,      ///< gc_costs::kSweepPerCell at kGcSweepCode
    kNumPhaseSpecs,
};

/**
 * Per-phase precomputed cost table (DESIGN.md §5e, mirroring the
 * interpreter's tier tables): each gc_costs::k* constant folded
 * together with its component code address, its static code footprint
 * (micro_ops * 4 bytes, as chargeGcWork always passed) and the
 * dependence-stall product micro_ops * gcStallPerUop.
 *
 * charge(cpu, s, 1) is bit-identical to one historical
 * chargeGcWork(uops, addr) call: identical execute() operands and an
 * identical stall summand (stallPerItem * 1.0 == stallPerItem).
 * charge(cpu, s, n) for n > 1 is the v2 *folded* form — one execute of
 * n items' micro-ops over one loop-body fetch span, one stall of the
 * prefolded product times n. Folding is an intentional model change
 * (batch the per-edge bookkeeping dispatch at object/block
 * granularity); see DESIGN.md §5e for the delta statement and the
 * golden-refresh protocol.
 */
struct GcCostTable
{
    struct PhaseCost
    {
        std::uint32_t uops = 0;      ///< micro-ops per item
        std::uint32_t codeBytes = 0; ///< loop-body footprint (uops * 4)
        Address codeAddr = 0;
        double stallPerItem = 0.0;   ///< uops * gcStallPerUop, prefolded
    };

    PhaseCost specs[kNumPhaseSpecs];
    /** gcStallPerUop, for the size-dependent copy charge. */
    double stallPerUop = 0.0;

    /** Charge `count` items of phase `s` as one execute + one stall. */
    void
    charge(sim::CpuModel &cpu, GcPhaseSpec s, std::uint32_t count) const
    {
        const PhaseCost &c = specs[s];
        cpu.execute(c.uops * count, c.codeAddr, c.codeBytes);
        cpu.stall(c.stallPerItem * static_cast<double>(count));
    }

    /**
     * Copy-path bookkeeping for one object of `size` bytes: plan
     * dispatch, TIB interrogation, size decode, cursor update,
     * forwarding-word CAS. Micro-op count and stall are the historical
     * per-object products; the fetch span is the fixed
     * gc_costs::kCopyCodeBytes routine footprint.
     */
    void
    chargeCopy(sim::CpuModel &cpu, std::uint32_t size) const
    {
        const std::uint32_t uops =
            gc_costs::kCopyPerObject +
            (size / 16) * gc_costs::kCopyPer16Bytes;
        cpu.execute(uops, kGcCopyCode, gc_costs::kCopyCodeBytes);
        cpu.stall(static_cast<double>(uops) * stallPerUop);
    }

    /** Deficit units consumed by a charge of `total_uops` micro-ops
     *  (see gcPollFreeUnits): one unit per started 64-uop chunk. */
    static std::uint64_t
    chargeUnits(std::uint32_t total_uops)
    {
        return 1 + total_uops / 64;
    }

    static GcCostTable make(const sim::System &system);
};

/**
 * How many deficit units of GC work can run before the next periodic
 * task could possibly come due (same conservative-bound technique as
 * Interpreter::pollFreeIterations / doNativeWork). A unit is one data
 * access or one execute of at most 64 micro-ops; folded charges count
 * GcCostTable::chargeUnits. Zero means a task is already due. Polls
 * skipped while the consumed units stay under this budget are provably
 * no-ops; see DESIGN.md §5e for the argument.
 */
std::uint64_t gcPollFreeUnits(sim::System &system);

/** The collector algorithms of paper Fig. 3 (plus Kaffe's). */
enum class CollectorKind
{
    SemiSpace,
    MarkSweep,
    GenCopy,
    GenMS,
    IncrementalMS,
};

const char *collectorName(CollectorKind kind);

/**
 * Interface the collector uses to reach the VM: root enumeration and
 * component bracketing (the Jikes scheduler writes the GC component ID
 * when it dispatches the collector thread; Kaffe brackets inline).
 */
class GcHost
{
  public:
    virtual ~GcHost() = default;

    /**
     * Visit every root slot. The visitor may update the slot (copying
     * collectors). Implementations charge root-scan traffic themselves.
     */
    virtual void forEachRoot(const std::function<void(Address &)> &fn) = 0;

    /** Called when a collection (or increment) begins. */
    virtual void gcBegin(bool major) = 0;

    /** Called when a collection (or increment) ends. */
    virtual void gcEnd(bool major) = 0;
};

/** Everything a collector needs to operate. */
struct GcEnv
{
    Heap &heap;
    ObjectModel &om;
    sim::System &system;
    GcHost &host;
    /** Charge the mutator for write-barrier work (ablation A2 turns the
     *  cost off while keeping the remembered sets correct). */
    bool chargeBarrierCost = true;
    /**
     * Use the batched fast paths (host-side graph walk + exact event
     * replay, DESIGN.md §5e). Off = the historical per-word reference
     * paths, the oracle only tests/test_gc_diff.cc selects. Both
     * produce bit-identical architectural events and joules.
     */
    bool fastPath = true;
};

/**
 * Abstract collector.
 */
class Collector
{
  public:
    struct Stats
    {
        std::uint64_t collections = 0;
        std::uint64_t minorCollections = 0;
        std::uint64_t majorCollections = 0;
        Tick pauseTicks = 0;
        std::uint64_t bytesAllocated = 0;
        std::uint64_t objectsAllocated = 0;
        std::uint64_t bytesCopied = 0;
        std::uint64_t objectsCopied = 0;
        std::uint64_t objectsMarked = 0;
        std::uint64_t bytesFreed = 0;
        std::uint64_t barrierHits = 0;
        std::uint64_t remsetEntries = 0;
    };

    explicit Collector(const GcEnv &env)
        : env_(env), costs_(GcCostTable::make(env.system))
    {
    }
    virtual ~Collector() = default;

    Collector(const Collector &) = delete;
    Collector &operator=(const Collector &) = delete;

    virtual const char *name() const = 0;

    /**
     * Allocate raw object storage (header included, 8-byte aligned).
     * Triggers collection on exhaustion; returns 0 only when the heap
     * is truly out of memory.
     */
    virtual Address allocate(std::uint32_t bytes) = 0;

    /**
     * Reference-store barrier hook. Called for every PutRef/PutRefElem
     * (and PutStatic in generational configurations does not need it:
     * statics are scanned as roots at every collection).
     */
    virtual void
    writeBarrier(Address holder, Address slot_addr, Address value)
    {
        (void)holder;
        (void)slot_addr;
        (void)value;
    }

    /** True if the mutator must invoke writeBarrier on ref stores. */
    virtual bool needsWriteBarrier() const { return false; }

    /**
     * Called after a fresh object's header has been initialized
     * (IncrementalMS uses it to allocate black during marking).
     */
    virtual void postInit(Address obj) { (void)obj; }

    /** Explicit collection trigger (tests, thermal-aware GC policy). */
    virtual void collect(bool major) = 0;

    /** Bytes currently considered live-or-allocated. */
    virtual std::uint64_t heapUsed() const = 0;

    const Stats &stats() const { return stats_; }

  protected:
    /** Charge GC bookkeeping micro-ops at a VM-code address. */
    void
    chargeWork(std::uint32_t micro_ops, Address code_addr)
    {
        env_.system.cpu().execute(micro_ops, code_addr, micro_ops * 4);
    }

    GcEnv env_;
    /** Precomputed per-phase charges for this platform. */
    GcCostTable costs_;
    Stats stats_;
};

/** Create a collector over a fresh heap. */
std::unique_ptr<Collector> makeCollector(CollectorKind kind,
                                         const GcEnv &env);

} // namespace jvm
} // namespace javelin

#endif // JAVELIN_JVM_GC_COLLECTOR_HH
