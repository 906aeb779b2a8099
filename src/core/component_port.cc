#include "core/component_port.hh"

#include "util/logging.hh"

namespace javelin {
namespace core {

namespace {

/** Cycles charged to the CPU per port write (I/O store cost). */
constexpr double kWriteCostCycles = 2.0;

} // namespace

ComponentPort::ComponentPort(sim::System &system)
    : ComponentPort(system, Config())
{
}

ComponentPort::ComponentPort(sim::System &system, const Config &config)
    : system_(system), config_(config)
{
    stack_.reserve(16);
}

void
ComponentPort::write(ComponentId id)
{
    ++writeCount_;
    if (config_.chargeWrites)
        system_.cpu().stall(kWriteCostCycles);
    if (id == current_)
        return;
    const ComponentId prev = current_;
    current_ = id;
    const Tick now = system_.cpu().now();
    for (const auto &obs : observers_)
        obs(prev, id, now);
}

void
ComponentPort::push(ComponentId id)
{
    stack_.push_back(current_);
    write(id);
}

void
ComponentPort::pop()
{
    JAVELIN_ASSERT(!stack_.empty(), "component pop without push");
    const ComponentId prev = stack_.back();
    stack_.pop_back();
    write(prev);
}

void
ComponentPort::rawWrite(ComponentId id)
{
    stack_.clear();
    write(id);
}

void
ComponentPort::addObserver(Observer observer)
{
    observers_.push_back(std::move(observer));
}

} // namespace core
} // namespace javelin
