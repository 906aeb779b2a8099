#include "harness/tenant_set.hh"

#include <algorithm>
#include <limits>

#include "jvm/address.hh"
#include "util/logging.hh"

namespace javelin {
namespace harness {

TenantSet::TenantSet(sim::System &system, core::ComponentPort &port)
    : system_(system), port_(port)
{
    // Tag every GC with the tenant that ran it: at a port transition
    // into Gc the CPU's occupant is the colliding tenant (GC always
    // runs inside a tenant's slice — allocation triggers it).
    observer_ = port_.addObserver([this](core::ComponentId prev,
                                         core::ComponentId next, Tick now) {
        if (next == core::ComponentId::Gc && !gcOpen_) {
            gcOpen_ = true;
            GcInterval gi;
            gi.tenant = onCpuTenant_ >= 0
                            ? static_cast<std::uint32_t>(onCpuTenant_)
                            : 0;
            gi.begin = now;
            gi.end = now;
            gcIntervals_.push_back(gi);
        } else if (prev == core::ComponentId::Gc && gcOpen_) {
            gcOpen_ = false;
            gcIntervals_.back().end = now;
        }
    });
}

std::uint32_t
TenantSet::add(const TenantSpec &spec)
{
    JAVELIN_ASSERT(!ran_, "tenants must be added before run()");
    JAVELIN_ASSERT(spec.program != nullptr, "tenant needs a program");
    const auto idx = static_cast<std::uint32_t>(vms_.size());
    vms_.push_back(std::make_unique<jvm::Jvm>(system_, *spec.program,
                                              spec.vm, port_));
    vms_.back()->setYieldEachQuantum(true);
    vms_.back()->setOnCpu(false);
    tenants_.emplace_back(spec);
    return idx;
}

void
TenantSet::charge(Accum &acct)
{
    system_.syncPower();
    const double cpuJ = system_.cpuJoules();
    const double memJ = system_.memoryJoules();
    const Tick now = system_.cpu().now();
    const sim::PerfCounters counters = system_.counters();

    acct.cpu.add(cpuJ - refCpuJ_);
    acct.mem.add(memJ - refMemJ_);
    acct.ticks += now - refTick_;
    acct.counters += counters - refCounters_;

    refCpuJ_ = cpuJ;
    refMemJ_ = memJ;
    refTick_ = now;
    refCounters_ = counters;
}

void
TenantSet::pumpArrivals(Tick now)
{
    for (auto &t : tenants_) {
        if (t.failed)
            continue;
        while (t.generated < t.spec.requests && t.nextArrival <= now) {
            t.queue.push_back(t.nextArrival);
            ++t.arrived;
            ++t.generated;
            if (t.generated < t.spec.requests)
                t.nextArrival = t.epochTick + t.arrivals.next();
        }
    }
}

bool
TenantSet::runnable(const TenantState &t) const
{
    if (t.failed)
        return false;
    const auto &vm = *vms_[&t - tenants_.data()];
    return vm.requestActive() || !t.queue.empty();
}

bool
TenantSet::tenantDone(const TenantState &t) const
{
    if (t.failed)
        return true;
    const auto &vm = *vms_[&t - tenants_.data()];
    return t.generated >= t.spec.requests && t.queue.empty() &&
           !vm.requestActive();
}

CoTenancyResult
TenantSet::run()
{
    JAVELIN_ASSERT(!ran_, "a TenantSet runs exactly once");
    JAVELIN_ASSERT(!vms_.empty(), "no tenants");
    ran_ = true;

    sim::CpuModel &cpu = system_.cpu();
    CoTenancyResult res;
    res.startTick = cpu.now();

    // Model-total baselines (cross-check path, integrated by the power
    // models independently of the per-account partition).
    system_.syncPower();
    const double modelCpu0 = system_.cpuJoules();
    const double modelMem0 = system_.memoryJoules();

    // Attribution epoch: everything from here on lands in an account.
    refCpuJ_ = modelCpu0;
    refMemJ_ = modelMem0;
    refTick_ = cpu.now();
    refCounters_ = system_.counters();

    Accum idle;

    // Boot every tenant in index order; boot work (class preloading on
    // Kaffe, port/heap setup) is charged to the booting tenant.
    for (std::size_t i = 0; i < tenants_.size(); ++i) {
        TenantState &t = tenants_[i];
        onCpuTenant_ = static_cast<std::int32_t>(i);
        vms_[i]->setOnCpu(true);
        vms_[i]->beginService();
        vms_[i]->setOnCpu(false);
        charge(t.accum);
        // The arrival timeline starts when the set is up, offset by
        // the tenant's own seeded process.
        t.epochTick = cpu.now();
        if (t.spec.requests > 0)
            t.nextArrival = t.epochTick + t.arrivals.next();
        else
            t.generated = t.spec.requests;
    }
    onCpuTenant_ = -1;

    const auto n = tenants_.size();
    std::size_t last = n - 1;
    constexpr Tick kNever = std::numeric_limits<Tick>::max();

    for (;;) {
        pumpArrivals(cpu.now());

        // Deterministic round-robin: first runnable tenant after the
        // last one that ran.
        std::size_t pick = n;
        for (std::size_t k = 1; k <= n; ++k) {
            const std::size_t cand = (last + k) % n;
            if (runnable(tenants_[cand])) {
                pick = cand;
                break;
            }
        }

        if (pick == n) {
            // Nobody runnable: done, or waiting on future arrivals.
            bool allDone = true;
            Tick earliest = kNever;
            for (const auto &t : tenants_) {
                if (!tenantDone(t))
                    allDone = false;
                if (!t.failed && t.generated < t.spec.requests)
                    earliest = std::min(earliest, t.nextArrival);
            }
            if (allDone || earliest == kNever)
                break;
            if (earliest > cpu.now()) {
                system_.idleFor(earliest - cpu.now());
                charge(idle);
            }
            continue;
        }

        TenantState &t = tenants_[pick];
        jvm::Jvm &vm = *vms_[pick];

        if (pick != last) {
            // Thread-scheduler dispatch on a tenant switch, attributed
            // to the incoming tenant (it runs on its way in).
            core::ComponentScope scope(port_,
                                       core::ComponentId::Scheduler);
            cpu.execute(40, jvm::kSchedulerCode, 160);
            cpu.store(jvm::kStackBase + 0x10000);
            ++res.contextSwitches;
        }
        last = pick;

        onCpuTenant_ = static_cast<std::int32_t>(pick);
        vm.setOnCpu(true);
        if (!vm.requestActive()) {
            t.inFlightArrival = t.queue.front();
            t.queue.pop_front();
            t.inFlightStartJoules =
                t.accum.cpu.value() + t.accum.mem.value();
            vm.startRequest();
        }
        bool finished = false;
        try {
            finished = vm.runRequestSlice();
        } catch (const jvm::OutOfMemoryError &) {
            vm.abortRequest();
            t.failed = true;
            t.failMessage = "OutOfMemoryError";
        } catch (const jvm::StackOverflowError &) {
            vm.abortRequest();
            t.failed = true;
            t.failMessage = "StackOverflowError";
        }
        vm.setOnCpu(false);
        ++t.slices;
        charge(t.accum);
        onCpuTenant_ = -1;

        if (finished) {
            ++t.served;
            t.latenciesUs.push_back(
                static_cast<double>(cpu.now() - t.inFlightArrival) /
                static_cast<double>(kTicksPerMicro));
            t.requestJoules += t.accum.cpu.value() +
                               t.accum.mem.value() -
                               t.inFlightStartJoules;
        }
    }

    res.endTick = cpu.now();
    res.gcIntervals = std::move(gcIntervals_);

    res.idleCpuJoules = idle.cpu.value();
    res.idleMemJoules = idle.mem.value();
    res.idleTicks = idle.ticks;

    res.tenants.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        TenantState &t = tenants_[i];
        TenantAccount &a = res.tenants[i];
        a.cpuJoules = t.accum.cpu.value();
        a.memJoules = t.accum.mem.value();
        a.ticks = t.accum.ticks;
        a.counters = t.accum.counters;
        a.requestsArrived = t.arrived;
        a.requestsServed = t.served;
        a.slices = t.slices;
        a.failed = t.failed;
        a.failMessage = t.failMessage;
        a.vm = vms_[i]->endService();
        a.gcCollections = a.vm.gc.collections;
        a.gcPauseTicks = a.vm.gc.pauseTicks;
        if (!t.latenciesUs.empty()) {
            std::vector<double> sorted = t.latenciesUs;
            std::sort(sorted.begin(), sorted.end());
            double sum = 0.0;
            for (double v : sorted)
                sum += v;
            a.meanLatencyUs = sum / static_cast<double>(sorted.size());
            // Nearest-rank p95.
            const std::size_t rank = std::min(
                sorted.size() - 1,
                static_cast<std::size_t>(0.95 *
                                         static_cast<double>(sorted.size())));
            a.p95LatencyUs = sorted[rank];
            a.maxLatencyUs = sorted.back();
        }
        if (t.served > 0)
            a.energyPerRequestJ =
                t.requestJoules / static_cast<double>(t.served);
    }

    // Platform totals: DEFINED as the index-order sum of the accounts
    // (conservation is bit-for-bit by construction — DESIGN.md §11).
    double cpuSum = 0.0, memSum = 0.0;
    for (const auto &a : res.tenants) {
        cpuSum += a.cpuJoules;
        memSum += a.memJoules;
    }
    cpuSum += res.idleCpuJoules;
    memSum += res.idleMemJoules;
    res.platformCpuJoules = cpuSum;
    res.platformMemJoules = memSum;

    // Cross-check: the power models' own integration over the run.
    system_.syncPower();
    res.modelCpuJoules = system_.cpuJoules() - modelCpu0;
    res.modelMemJoules = system_.memoryJoules() - modelMem0;
    return res;
}

} // namespace harness
} // namespace javelin
