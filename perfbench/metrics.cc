#include "metrics.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <utility>

namespace javelin {
namespace perfbench {

double
hostSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

ComponentClock::ComponentClock(core::ComponentPort &port, Now now)
    : port_(port), now_(std::move(now))
{
    port_.addObserver([this](core::ComponentId prev, core::ComponentId,
                             Tick) { onSwitch(prev); });
}

void
ComponentClock::start()
{
    running_ = true;
    last_ = now_();
}

void
ComponentClock::onSwitch(core::ComponentId prev)
{
    if (!running_)
        return;
    const double t = now_();
    seconds_[core::componentIndex(prev)] += t - last_;
    last_ = t;
}

void
ComponentClock::stop()
{
    onSwitch(port_.current());
    running_ = false;
}

double
ComponentClock::seconds(core::ComponentId id) const
{
    return seconds_[core::componentIndex(id)];
}

double
ComponentClock::totalSeconds() const
{
    double total = 0.0;
    for (const double s : seconds_)
        total += s;
    return total;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

double
busyFraction(const std::vector<ShardSpan> &spans, double wall,
             unsigned workers)
{
    if (wall <= 0.0 || workers == 0)
        return 0.0;
    double busy = 0.0;
    for (const auto &s : spans)
        busy += s.end - s.start;
    return busy / (wall * workers);
}

double
tailSeconds(const std::vector<ShardSpan> &spans, unsigned workers)
{
    if (spans.empty())
        return 0.0;
    double lastStart = spans.front().start;
    for (const auto &s : spans)
        lastStart = std::max(lastStart, s.start);

    // Sweep the running count over the interval's ends after the last
    // start; before it, every worker had a shard or could claim one.
    std::vector<double> ends;
    unsigned running = 0;
    for (const auto &s : spans) {
        if (s.end > lastStart) {
            ends.push_back(s.end);
            ++running;
        }
    }
    std::sort(ends.begin(), ends.end());
    double tail = 0.0;
    double t = lastStart;
    for (const double e : ends) {
        if (running < workers)
            tail += e - t;
        t = e;
        --running;
    }
    return tail;
}

void
Fingerprint::bytes(const void *p, std::size_t n)
{
    const auto *b = static_cast<const unsigned char *>(p);
    for (std::size_t i = 0; i < n; ++i) {
        h_ ^= b[i];
        h_ *= 0x100000001b3ULL;
    }
}

Fingerprint &
Fingerprint::add(std::uint64_t v)
{
    bytes(&v, sizeof v);
    return *this;
}

Fingerprint &
Fingerprint::add(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    return add(bits);
}

Fingerprint &
Fingerprint::add(const std::string &s)
{
    add(static_cast<std::uint64_t>(s.size()));
    bytes(s.data(), s.size());
    return *this;
}

std::string
Fingerprint::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
}

} // namespace perfbench
} // namespace javelin
