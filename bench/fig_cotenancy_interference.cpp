/**
 * @file
 * Co-tenancy interference study (DESIGN.md §11): several JVM tenants
 * share one P6 power/thermal budget, each serving requests of a
 * GC-bound (_202_jess) or mutator-bound (_209_db) workload under a
 * copying (SemiSpace) or generational (GenMS) collector.
 *
 * Reported per (benchmark, collector, tenant-count) shard:
 *  - energy per request and request latency (mean/p95) per tenant —
 *    the offered-load/efficiency trade of adding tenants;
 *  - GC-induced cross-tenant interference: how much of the platform's
 *    energy during one tenant's GCs is borne while other tenants'
 *    requests queue (GC time x co-tenant count);
 *  - conservation check: per-tenant joules sum bit-for-bit to the
 *    platform totals (by construction; the independently integrated
 *    model totals are printed alongside).
 */

#include <iostream>

#include "harness/experiment.hh"
#include "harness/report.hh"
#include "harness/scenario.hh"
#include "harness/sweep.hh"

using namespace javelin;
using namespace javelin::harness;

int
main(int argc, char **)
{
    if (argc > 1) {
        std::cerr << "usage: fig_cotenancy_interference\n";
        return 2;
    }
    Scenario scenario = builtinScenario("cotenancy-interference");

    const auto tasks = expandScenario(scenario);
    SweepRunner::Config rc;
    rc.progress = consoleProgress("cotenancy sweep");
    const auto results = SweepRunner(rc).run(tasks);
    if (reportSweepFailures(std::cerr, tasks, results) > 0)
        return 1;

    std::cout << "=== Co-tenancy interference: shared P6 budget, "
                 "Jikes RVM, Poisson arrivals ===\n\n";

    Table shardTable({"bench", "collector", "tenants", "J/req",
                      "lat.mean(us)", "lat.p95(us)", "gc", "switches",
                      "platform(J)", "model(J)"});
    Table tenantTable({"bench", "collector", "tenants", "tenant",
                       "cpu(J)", "mem(J)", "served", "J/req",
                       "p95(us)", "gc-pause(ms)"});

    for (std::size_t i = 0; i < results.size(); ++i) {
        const ExperimentResult &r = results[i];
        const CoTenancyResult &ct = r.cotenancy;
        const auto &cfg = tasks[i].config;

        double jPerReq = 0.0, meanLat = 0.0, p95 = 0.0;
        std::uint64_t gcs = 0, served = 0;
        for (const auto &a : ct.tenants) {
            jPerReq += a.energyPerRequestJ * a.requestsServed;
            meanLat += a.meanLatencyUs * a.requestsServed;
            p95 = std::max(p95, a.p95LatencyUs);
            gcs += a.gcCollections;
            served += a.requestsServed;
        }
        if (served > 0) {
            jPerReq /= static_cast<double>(served);
            meanLat /= static_cast<double>(served);
        }

        shardTable.beginRow()
            .cell(tasks[i].profile.name)
            .cell(jvm::collectorName(cfg.collector))
            .cell(static_cast<std::uint64_t>(cfg.tenants))
            .cell(jPerReq, 6)
            .cell(meanLat, 1)
            .cell(p95, 1)
            .cell(gcs)
            .cell(ct.contextSwitches)
            .cell(ct.platformCpuJoules + ct.platformMemJoules, 6)
            .cell(ct.modelCpuJoules + ct.modelMemJoules, 6);

        for (std::size_t t = 0; t < ct.tenants.size(); ++t) {
            const auto &a = ct.tenants[t];
            tenantTable.beginRow()
                .cell(tasks[i].profile.name)
                .cell(jvm::collectorName(cfg.collector))
                .cell(static_cast<std::uint64_t>(cfg.tenants))
                .cell(static_cast<std::uint64_t>(t))
                .cell(a.cpuJoules, 6)
                .cell(a.memJoules, 6)
                .cell(static_cast<std::uint64_t>(a.requestsServed))
                .cell(a.energyPerRequestJ, 6)
                .cell(a.p95LatencyUs, 1)
                .cell(ticksToSeconds(a.gcPauseTicks) * 1e3, 3);
        }
    }

    shardTable.print(std::cout);
    std::cout << "\nper-tenant accounts:\n";
    tenantTable.print(std::cout);

    // GC-induced interference: time co-tenants spend stalled behind
    // another tenant's collection (GC interval x co-tenant count),
    // and the energy-per-request inflation from 1 to max tenants.
    std::cout << "\nGC-induced interference (vs the 1-tenant "
                 "baseline of the same bench/collector):\n";
    for (const auto &bench : scenario.benchmarks)
        for (const auto collector : scenario.collectors) {
            double base = -1.0, peak = -1.0;
            std::uint32_t peakTenants = 0;
            double peakGcBlockedUs = 0.0;
            for (std::size_t i = 0; i < results.size(); ++i) {
                if (tasks[i].profile.name != bench ||
                    tasks[i].config.collector != collector)
                    continue;
                const auto &ct = results[i].cotenancy;
                double jpr = 0.0;
                std::uint64_t served = 0;
                for (const auto &a : ct.tenants) {
                    jpr += a.energyPerRequestJ * a.requestsServed;
                    served += a.requestsServed;
                }
                if (served)
                    jpr /= static_cast<double>(served);
                if (tasks[i].config.tenants == 1)
                    base = jpr;
                if (tasks[i].config.tenants >= peakTenants) {
                    peak = jpr;
                    peakTenants = tasks[i].config.tenants;
                    Tick gcTicks = 0;
                    for (const auto &gi : ct.gcIntervals)
                        gcTicks += gi.end - gi.begin;
                    peakGcBlockedUs =
                        ticksToSeconds(gcTicks) * 1e6 *
                        static_cast<double>(peakTenants - 1);
                }
            }
            if (base > 0 && peak > 0)
                std::cout << "  " << bench << "/"
                          << jvm::collectorName(collector) << ": J/req x"
                          << peak / base << " at " << peakTenants
                          << " tenants; co-tenant time behind GC "
                          << peakGcBlockedUs << " us\n";
        }
    return 0;
}
