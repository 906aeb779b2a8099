/**
 * @file
 * Top-level virtual machine.
 *
 * Assembles heap, object model, collector, class loader, compilers and
 * execution engine over a simulated System, and implements the two VM
 * personalities of the paper:
 *
 *  - Jikes RVM: no interpreter (baseline compile on first invocation),
 *    timer-sampled adaptive optimizing recompilation running on a
 *    service thread, system classes merged into the VM image, choice of
 *    SemiSpace / MarkSweep / GenCopy / GenMS collectors, component IDs
 *    written at thread-dispatch points.
 *  - Kaffe: one-shot non-optimizing JIT, incremental tri-colour
 *    mark-sweep collector, every class (including system classes)
 *    loaded lazily, component IDs written by entry/exit bracketing.
 *
 * The Jvm is the GcHost: it enumerates roots (statics + stack registers)
 * and brackets collector activity on the component port.
 */

#ifndef JAVELIN_JVM_JVM_HH
#define JAVELIN_JVM_JVM_HH

#include <deque>
#include <memory>

#include "jvm/interpreter.hh"

namespace javelin {
namespace jvm {

/** Which virtual machine personality to run. */
enum class VmKind { Jikes, Kaffe };

const char *vmKindName(VmKind kind);

/**
 * Full VM configuration for one run.
 */
struct JvmConfig
{
    VmKind kind = VmKind::Jikes;
    CollectorKind collector = CollectorKind::GenCopy;
    /** Heap size in (already scaled) bytes. */
    std::uint64_t heapBytes = 4 * kMiB;

    /** Enable the adaptive optimizing system (Jikes only). */
    bool adaptiveOptimization = true;

    Interpreter::Config interp;

    /** Charge component-port writes to the CPU (perturbation study). */
    bool chargePortWrites = true;
    /** Charge write-barrier work to the mutator (ablation A2). */
    bool chargeBarrierCost = true;
};

/**
 * Result of one benchmark run.
 */
struct RunResult
{
    std::int64_t returnValue = 0;
    bool outOfMemory = false;
    bool stackOverflow = false;
    std::uint64_t bytecodesExecuted = 0;
    Collector::Stats gc;
    std::uint32_t classesLoaded = 0;
    std::uint32_t methodsCompiled = 0;
    std::uint32_t methodsOptimized = 0;
    Tick startTick = 0;
    Tick endTick = 0;

    double
    seconds() const
    {
        return ticksToSeconds(endTick - startTick);
    }
};

/**
 * One virtual machine instance (one run).
 */
class Jvm : public GcHost
{
  public:
    Jvm(sim::System &system, const Program &program,
        const JvmConfig &config);

    /**
     * Shared-port instance: write component IDs through an externally
     * owned port (the harness's rig; harness::TenantSet's co-tenants).
     * Everything else — heap, collector, loader, compilers, engine — is
     * private to this instance; only the System (and hence caches,
     * DRAM, power and thermal budget) and the port are shared.
     */
    Jvm(sim::System &system, const Program &program,
        const JvmConfig &config, core::ComponentPort &shared_port);

    ~Jvm() override;

    /** Execute the program's entry method to completion. */
    RunResult run();

    /**
     * Sliced service mode (DESIGN.md §11): run() decomposed so a
     * scheduler can interleave many instances on one System. A tenant
     * is booted once (beginService), then serves requests: each
     * request is one run of the program's entry method, executed in
     * quantum-bounded slices. Long-lived VM state — loaded classes,
     * compiled methods, heap, collector — persists across requests,
     * so later requests run warm. endService() closes the rollup.
     */
    void beginService();
    /** Arm the next request (entry method invocation). */
    void startRequest();
    /** Run one slice; true when the request completed. */
    bool runRequestSlice();
    /** A request is in flight (startRequest'd, not yet completed). */
    bool requestActive() const { return engine_->active(); }
    /** Tear down a request whose slice threw (OOM/stack overflow). */
    void abortRequest() { engine_->abortRun(); }
    RunResult endService();

    /** Scheduled state: a descheduled tenant's VM-internal timers
     *  (the Jikes adaptive sampler) do not fire. */
    void setOnCpu(bool on) { onCpu_ = on; }
    /** Yield the engine back to the scheduler every quantum. */
    void setYieldEachQuantum(bool y) { yieldEachQuantum_ = y; }

    core::ComponentPort &port() { return port_; }
    Collector &collector() { return *collector_; }
    ClassLoader &classLoader() { return loader_; }
    CompilerModel &compiler() { return compiler_; }
    Interpreter &engine() { return *engine_; }
    Statics &statics() { return statics_; }
    Heap &heap() { return heap_; }
    ObjectModel &objectModel() { return om_; }
    const JvmConfig &config() const { return config_; }

    // GcHost interface.
    void forEachRoot(const std::function<void(Address &)> &fn) override;
    void gcBegin(bool major) override;
    void gcEnd(bool major) override;

  private:
    Jvm(sim::System &system, const Program &program,
        const JvmConfig &config, core::ComponentPort *shared_port);

    void adaptiveSample(Tick now);
    void serviceQuantum();
    void chargeSchedulerDispatch();

    sim::System &system_;
    const Program &program_;
    JvmConfig config_;
    /** Owned in the classic single-VM case; null when sharing. */
    std::unique_ptr<core::ComponentPort> ownedPort_;
    core::ComponentPort &port_;
    Heap heap_;
    ObjectModel om_;
    std::unique_ptr<Collector> collector_;
    ClassLoader loader_;
    CompilerModel compiler_;
    Statics statics_;
    std::vector<MethodRuntime> methodRt_;
    std::unique_ptr<Interpreter> engine_;
    std::deque<MethodId> optQueue_;
    /** The adaptive-sampler task (0 if none); removed by ~Jvm. */
    sim::System::TaskId samplerTask_ = 0;
    bool running_ = false;
    bool onCpu_ = true;
    bool yieldEachQuantum_ = false;
    std::int64_t lastReturnValue_ = 0;
    Tick serviceStartTick_ = 0;
};

/** Derive the per-VM interpreter/loader settings for a personality. */
Interpreter::Config interpConfigFor(VmKind kind);
ClassLoader::Config loaderConfigFor(VmKind kind, const Program &program);

} // namespace jvm
} // namespace javelin

#endif // JAVELIN_JVM_JVM_HH
