/**
 * @file
 * The memory-mapped component-ID register of paper Section IV-C.
 *
 * The instrumented JVM writes the ID of the component taking control of
 * the processor to an I/O-mapped register (the parallel port on the P6
 * platform, GPIO pins on the DBPXA255). The DAQ samples this register
 * alongside the power channels, which is how power samples get attributed
 * to components.
 *
 * Two write styles are supported, matching the two JVMs:
 *  - push()/pop() entry/exit bracketing (Kaffe instrumentation), which
 *    correctly handles recurrent and overlapping component calls via an
 *    ID stack;
 *  - rawWrite() absolute writes (Jikes instrumentation, issued by the
 *    thread scheduler at dispatch time).
 *
 * Each write optionally charges the CPU a small I/O-store cost (2
 * cycles) so the perturbation of the measurement itself can be studied.
 */

#ifndef JAVELIN_CORE_COMPONENT_PORT_HH
#define JAVELIN_CORE_COMPONENT_PORT_HH

#include <functional>
#include <vector>

#include "core/component.hh"
#include "sim/system.hh"

namespace javelin {
namespace core {

/**
 * Memory-mapped component-ID I/O register.
 */
class ComponentPort
{
  public:
    /** Called on every value change: (previous, next, time-of-switch). */
    using Observer =
        std::function<void(ComponentId, ComponentId, Tick)>;
    /** Handle of a registered observer; never 0. */
    using ObserverId = std::uint64_t;

    struct Config
    {
        /** Whether to charge each write's I/O store cost at all. */
        bool chargeWrites = true;
    };

    explicit ComponentPort(sim::System &system);
    ComponentPort(sim::System &system, const Config &config);

    /** Enter a component; restores the previous one on pop(). */
    void push(ComponentId id);

    /** Leave the most recently pushed component. */
    void pop();

    /** Absolute write (Jikes scheduler style); clears the nesting stack. */
    void rawWrite(ComponentId id);

    /** Value currently visible at the register's output pins. */
    ComponentId current() const { return current_; }

    /** Nesting depth of push()ed components. */
    std::size_t depth() const { return stack_.size(); }

    /** Register a switch observer (e.g., the ground-truth accountant). */
    ObserverId addObserver(Observer observer);

    /**
     * Unregister an observer; the others keep their calling order. An
     * owner whose observer captures it must remove the observer before
     * it dies, or the port keeps calling into the dead object.
     */
    void removeObserver(ObserverId id);

    std::uint64_t writeCount() const { return writeCount_; }

  private:
    struct ObserverEntry
    {
        ObserverId id;
        Observer fn;
    };

    void write(ComponentId id);

    sim::System &system_;
    Config config_;
    ComponentId current_ = ComponentId::App;
    std::vector<ComponentId> stack_;
    std::vector<ObserverEntry> observers_;
    ObserverId lastObserverId_ = 0;
    std::uint64_t writeCount_ = 0;
};

/**
 * RAII component bracket: pushes on construction, pops on destruction.
 */
class ComponentScope
{
  public:
    ComponentScope(ComponentPort &port, ComponentId id)
        : port_(port)
    {
        port_.push(id);
    }

    ~ComponentScope() { port_.pop(); }

    ComponentScope(const ComponentScope &) = delete;
    ComponentScope &operator=(const ComponentScope &) = delete;

  private:
    ComponentPort &port_;
};

} // namespace core
} // namespace javelin

#endif // JAVELIN_CORE_COMPONENT_PORT_HH
