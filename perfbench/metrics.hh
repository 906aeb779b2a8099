/**
 * @file
 * Metric math for the repository benchmark: host-time attribution to
 * JVM components, shard-interval statistics for the sweep workload,
 * and the fingerprint used to prove that every pass simulated the same
 * program.
 *
 * Host time is attributed with the paper's own technique (Section
 * IV-C): every value the JVM writes to the component-ID port closes the
 * previous component's interval. Here the "sample" is a host steady
 * clock read instead of a DAQ power reading.
 */

#ifndef JAVELIN_PERFBENCH_METRICS_HH
#define JAVELIN_PERFBENCH_METRICS_HH

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/component_port.hh"

namespace javelin {
namespace perfbench {

/** Host steady-clock seconds since an arbitrary epoch. */
double hostSeconds();

/**
 * Host seconds per JVM component, accumulated by a ComponentPort
 * observer. The port only notifies on value changes and resolves
 * push/pop nesting itself, so each notification closes exactly one
 * interval of the component that held the processor.
 */
class ComponentClock
{
  public:
    using Now = std::function<double()>;

    /** Registers the observer; the port must not switch after this
     *  object is destroyed. */
    explicit ComponentClock(core::ComponentPort &port,
                            Now now = hostSeconds);

    ComponentClock(const ComponentClock &) = delete;
    ComponentClock &operator=(const ComponentClock &) = delete;

    /** Start attributing to the port's current component. */
    void start();
    /** Close the open interval; later switches are ignored. */
    void stop();

    double seconds(core::ComponentId id) const;
    double totalSeconds() const;

  private:
    void onSwitch(core::ComponentId prev);

    core::ComponentPort &port_;
    Now now_;
    std::array<double, core::kNumComponents> seconds_{};
    bool running_ = false;
    double last_ = 0.0;
};

/** Median of a sample (mean of the middle two for even sizes). */
double median(std::vector<double> values);

/** One timed shard: host start/end seconds on a common clock. */
struct ShardSpan
{
    double start = 0.0;
    double end = 0.0;
};

/** Σ shard seconds ÷ (wall × workers): how full the pool was kept. */
double busyFraction(const std::vector<ShardSpan> &spans, double wall,
                    unsigned workers);

/**
 * Wall seconds after the last shard started during which fewer shards
 * than workers were running: the load-imbalance tail a better shard
 * order or split could remove.
 */
double tailSeconds(const std::vector<ShardSpan> &spans, unsigned workers);

/** FNV-1a 64-bit running hash, hex-printed as a fingerprint. */
class Fingerprint
{
  public:
    Fingerprint &add(std::uint64_t v);
    /** Bit pattern, so equal fingerprints mean bit-identical doubles. */
    Fingerprint &add(double v);
    Fingerprint &add(const std::string &s);
    std::string hex() const;

  private:
    void bytes(const void *p, std::size_t n);

    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

} // namespace perfbench
} // namespace javelin

#endif // JAVELIN_PERFBENCH_METRICS_HH
