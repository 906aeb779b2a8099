/**
 * @file
 * Multi-JVM co-tenancy on one simulated platform (DESIGN.md §11).
 *
 * A TenantSet interleaves several jvm::Jvm instances on one
 * sim::System: the tenants share the memory hierarchy (caches, DRAM),
 * the power models, the thermal package and the DVFS budget — exactly
 * the coupling the paper's real machines exhibit when several VMs run
 * on one box — while each keeps a private heap, collector, class
 * loader and compiler.
 *
 * Scheduling is deterministic round-robin over runnable tenants at
 * interpreter-quantum granularity: every Jvm is put in
 * yield-each-quantum mode, so a slice is exactly one scheduling
 * quantum (Interpreter::kQuantumBytecodes, 4096 bytecodes) or less if
 * the request finishes. Tenant switches charge the paper's
 * scheduler-dispatch path, attributed to the incoming tenant. Because
 * all interleaving decisions are functions of simulated state only, a
 * co-tenancy run is bit-for-bit reproducible from its seeds.
 *
 * Energy attribution partitions chronologically: at every scheduling
 * boundary the cumulative platform CPU/memory joules, the elapsed
 * ticks and the HPM counter block are read, and the delta since the
 * previous boundary is charged to the account of whoever occupied the
 * CPU (a tenant, or the idle account while the set waits for the next
 * arrival). Platform totals are *defined* as the index-order sum of
 * the per-tenant and idle accounts, so conservation — the sum of the
 * parts equals the whole — holds bit-for-bit by construction; the
 * independently-integrated power-model totals are carried alongside
 * as a cross-check (equal up to floating-point reassociation).
 */

#ifndef JAVELIN_HARNESS_TENANT_SET_HH
#define JAVELIN_HARNESS_TENANT_SET_HH

#include <deque>
#include <memory>
#include <vector>

#include "jvm/jvm.hh"
#include "util/kahan.hh"
#include "workloads/service.hh"

namespace javelin {
namespace harness {

/**
 * One tenant's definition: a VM personality serving requests of one
 * program under one arrival process.
 */
struct TenantSpec
{
    jvm::JvmConfig vm;
    /** Program each request executes (non-owning; outlives the set). */
    const jvm::Program *program = nullptr;
    workloads::ArrivalConfig arrival;
    /** Requests to serve (0 = an idle tenant that only boots). */
    std::uint32_t requests = 32;
    /** Seed of the tenant's arrival timeline. */
    std::uint64_t seed = 1;
};

/**
 * Everything attributed to one tenant over a co-tenancy run.
 */
struct TenantAccount
{
    /** Platform energy charged while this tenant occupied the CPU. */
    double cpuJoules = 0.0;
    double memJoules = 0.0;
    /** Simulated time this tenant occupied the CPU. */
    Tick ticks = 0;
    /** HPM counter deltas accumulated while on-CPU. */
    sim::PerfCounters counters;

    std::uint32_t requestsArrived = 0;
    std::uint32_t requestsServed = 0;
    /** Scheduling slices this tenant ran. */
    std::uint64_t slices = 0;

    /** Request latency (arrival to completion), microseconds. */
    double meanLatencyUs = 0.0;
    double p95LatencyUs = 0.0;
    double maxLatencyUs = 0.0;
    /** Mean platform energy charged to the tenant per served request. */
    double energyPerRequestJ = 0.0;

    std::uint64_t gcCollections = 0;
    Tick gcPauseTicks = 0;

    /** The tenant VM's own rollup (bytecodes, GC stats, compiles). */
    jvm::RunResult vm;

    bool failed = false;
    std::string failMessage;
};

/** One garbage collection, tagged with the tenant that ran it. */
struct GcInterval
{
    std::uint32_t tenant = 0;
    Tick begin = 0;
    Tick end = 0;
};

/**
 * Result of one co-tenancy run.
 */
struct CoTenancyResult
{
    std::vector<TenantAccount> tenants;

    /** Charged while no tenant was runnable (waiting for arrivals). */
    double idleCpuJoules = 0.0;
    double idleMemJoules = 0.0;
    Tick idleTicks = 0;

    /**
     * Platform totals, defined as the index-order sum of the tenant
     * accounts plus idle: Σ tenants[i].cpuJoules + idleCpuJoules.
     * Conservation is bit-for-bit by construction (see file header).
     */
    double platformCpuJoules = 0.0;
    double platformMemJoules = 0.0;

    /** Independently-integrated power-model deltas (cross-check). */
    double modelCpuJoules = 0.0;
    double modelMemJoules = 0.0;

    Tick startTick = 0;
    Tick endTick = 0;
    std::uint64_t contextSwitches = 0;

    /** Every GC of the run, in chronological order. */
    std::vector<GcInterval> gcIntervals;

    double seconds() const { return ticksToSeconds(endTick - startTick); }
};

/**
 * A set of co-tenant JVMs interleaved on one System.
 *
 * Usage: construct over a System and a shared ComponentPort (the
 * instrument stack — DAQ, HPM sampler, ground-truth accountant —
 * attaches to that port as usual), add() each tenant, then run()
 * exactly once.
 */
class TenantSet
{
  public:
    TenantSet(sim::System &system, core::ComponentPort &port);
    /** Removes the GC-interval observer from the port. */
    ~TenantSet() { port_.removeObserver(observer_); }

    TenantSet(const TenantSet &) = delete;
    TenantSet &operator=(const TenantSet &) = delete;

    /** Add one tenant (before run()). Returns its index. */
    std::uint32_t add(const TenantSpec &spec);

    jvm::Jvm &tenant(std::uint32_t i) { return *vms_[i]; }
    std::uint32_t size() const { return static_cast<std::uint32_t>(vms_.size()); }

    /** Boot every tenant, serve every request, tear down. Call once. */
    CoTenancyResult run();

  private:
    struct Accum
    {
        NeumaierSum cpu;
        NeumaierSum mem;
        Tick ticks = 0;
        sim::PerfCounters counters;
    };

    struct TenantState
    {
        TenantSpec spec;
        workloads::ArrivalProcess arrivals;
        /** Arrival instants due but not yet started (absolute ticks). */
        std::deque<Tick> queue;
        /** Tick at which the tenant's arrival timeline starts. */
        Tick epochTick = 0;
        /** Next generated-but-not-due arrival (absolute ticks). */
        Tick nextArrival = 0;
        std::uint32_t generated = 0;
        /** Arrival tick of the in-flight request. */
        Tick inFlightArrival = 0;
        double inFlightStartJoules = 0.0;
        std::vector<double> latenciesUs;
        double requestJoules = 0.0;
        Accum accum;
        std::uint64_t slices = 0;
        std::uint32_t served = 0;
        std::uint32_t arrived = 0;
        bool failed = false;
        std::string failMessage;

        TenantState(const TenantSpec &s)
            : spec(s), arrivals(s.arrival, s.seed)
        {
        }
    };

    /** Charge everything since the last boundary to one account. */
    void charge(Accum &acct);
    void pumpArrivals(Tick now);
    bool runnable(const TenantState &t) const;
    bool tenantDone(const TenantState &t) const;

    sim::System &system_;
    core::ComponentPort &port_;
    core::ComponentPort::ObserverId observer_ = 0;
    std::vector<std::unique_ptr<jvm::Jvm>> vms_;
    std::vector<TenantState> tenants_;

    // Attribution boundary state.
    double refCpuJ_ = 0.0;
    double refMemJ_ = 0.0;
    Tick refTick_ = 0;
    sim::PerfCounters refCounters_;

    // GC-interval observer state.
    std::int32_t onCpuTenant_ = -1;
    bool gcOpen_ = false;
    std::vector<GcInterval> gcIntervals_;

    bool ran_ = false;
};

} // namespace harness
} // namespace javelin

#endif // JAVELIN_HARNESS_TENANT_SET_HH
