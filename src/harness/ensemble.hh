/**
 * @file
 * Seed-ensemble experiment runner: the statistical layer over
 * SweepRunner (ROADMAP item 4).
 *
 * A single pinned run cannot distinguish a real energy regression from
 * run-to-run variation, so the regression harness runs every
 * (workload x collector x heap) cell over an explicit list of ensemble
 * seeds. Each seed perturbs the synthetic program construction (the
 * benchmark profile's build seed) and the DAQ sense-noise streams,
 * giving an honest distribution of per-component joules, EDP and
 * throughput per cell. The runner then reduces each metric to
 * percentile-bootstrap confidence intervals (util/bootstrap.hh) and can
 * serialize the whole ensemble — per-seed samples included — as a
 * versioned JSON report that scripts/compare_ensemble.py gates on
 * statistically significant shifts (Mann-Whitney + permutation test)
 * instead of fixed thresholds.
 *
 * Determinism: the executed seeds depend only on (cell base seeds,
 * ensemble seed value) — never on the cell's position in the matrix —
 * so adding or reordering cells does not disturb any other cell's
 * samples, and a fixed seed list reproduces the report bit for bit at
 * any worker count.
 */

#ifndef JAVELIN_HARNESS_ENSEMBLE_HH
#define JAVELIN_HARNESS_ENSEMBLE_HH

#include <iosfwd>

#include "harness/sweep.hh"
#include "util/bootstrap.hh"

namespace javelin {
namespace harness {

/** One metric of one cell: per-seed samples plus the bootstrap CI. */
struct MetricSummary
{
    std::string name;
    /** One value per ensemble seed, in seed-list order. */
    std::vector<double> samples;
    BootstrapCi ci;
};

/** All metrics of one (benchmark x configuration) cell. */
struct EnsembleCellResult
{
    /** Stable identity: benchmark/vm/collector/heap/platform. */
    std::string key;
    SweepTask cell;
    std::vector<MetricSummary> metrics;
    /** Seeds whose run failed or threw (excluded from samples). */
    std::size_t failures = 0;
    /** Error message of the first failed seed (diagnostics). */
    std::string firstError;

    const MetricSummary *metric(const std::string &name) const;
};

/** Two-sided confidence level of every ensemble CI. */
inline constexpr double kEnsembleConfidence = 0.95;

/**
 * Ensemble runner configuration. The seed list is explicit (not a
 * count) so baselines can pin the exact ensemble they were captured
 * with; compare_ensemble.py refuses to compare reports whose seed
 * lists differ.
 */
struct EnsembleConfig
{
    /** Ensemble seeds; one experiment per (cell, seed). */
    std::vector<std::uint64_t> seeds = {1, 2, 3, 4, 5, 6, 7, 8};
    /** Bootstrap resamples per metric. */
    std::size_t resamples = 2000;
    /** Gaussian DAQ sense noise applied to every run (volts RMS). */
    double senseNoiseVoltsRms = 0.0005;
    /** Worker threads (0 = auto, same policy as SweepRunner). */
    unsigned jobs = 0;
    /** Progress callback, called after every completed run. */
    SweepRunner::Progress progress;
};

/** The metric names every cell reports, in report order. */
const std::vector<std::string> &ensembleMetricNames();

/**
 * The fixed per-run metric vector, in ensembleMetricNames() order.
 * Shared with the job engine, whose checkpoint payloads journal the
 * same vector per shard.
 */
std::vector<double> ensembleMetrics(const ExperimentResult &res);

/**
 * Runs cells x seeds and reduces to per-cell metric distributions.
 */
class EnsembleRunner
{
  public:
    EnsembleRunner() = default;
    explicit EnsembleRunner(EnsembleConfig config)
        : config_(std::move(config))
    {
    }

    /**
     * Run every cell over the full seed ensemble (cells.size() *
     * seeds.size() experiments, fanned out with the SweepRunner worker
     * policy) and return one result per cell, in input order.
     */
    std::vector<EnsembleCellResult>
    run(const std::vector<SweepTask> &cells) const;

    /**
     * The exact seeds an ensemble run executes for one cell: the cell's
     * own profile/config seeds mixed with each ensemble seed value.
     * Exposed so tests can reproduce a single ensemble member by hand.
     */
    static std::uint64_t memberProfileSeed(std::uint64_t profile_seed,
                                           std::uint64_t ensemble_seed);

  private:
    EnsembleConfig config_;
};

/** List each cell with failed members (key, count, first error) and
 *  return how many there are, as reportSweepFailures does for sweeps. */
std::size_t reportEnsembleFailures(
    std::ostream &os, const std::vector<EnsembleCellResult> &cells);

/**
 * Serialize an ensemble as versioned JSON (schema
 * "javelin-ensemble-v1"): run metadata, the seed list, and per cell the
 * per-seed samples plus bootstrap CI of every metric. This is the
 * interchange format of the energy-regression gate; keep it in sync
 * with scripts/compare_ensemble.py.
 */
void writeEnsembleReport(std::ostream &os,
                         const std::vector<EnsembleCellResult> &cells,
                         const EnsembleConfig &config);

} // namespace harness
} // namespace javelin

#endif // JAVELIN_HARNESS_ENSEMBLE_HH
