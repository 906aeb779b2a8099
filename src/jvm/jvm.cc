#include "jvm/jvm.hh"

#include "util/logging.hh"

namespace javelin {
namespace jvm {

namespace {

/** Adaptive-system sampling interval (Jikes only). */
constexpr Tick kSampleInterval = 100 * kTicksPerMicro;
/** Samples before a method is declared hot. */
constexpr std::uint32_t kHotSampleThreshold = 4;
/** Opt-compiler work units per service-thread slice. */
constexpr std::uint32_t kOptSliceUnits = 800;

} // namespace

const char *
vmKindName(VmKind kind)
{
    switch (kind) {
      case VmKind::Jikes:
        return "JikesRVM";
      case VmKind::Kaffe:
        return "Kaffe";
    }
    JAVELIN_PANIC("bad vm kind");
}

Interpreter::Config
interpConfigFor(VmKind kind)
{
    Interpreter::Config c;
    c.compileOnInvoke =
        kind == VmKind::Kaffe ? Tier::Jitted : Tier::Baseline;
    return c;
}

namespace {

/**
 * Loader config with the platform factored in: on the DBPXA255 class
 * files come out of FLASH through JAR decompression (cf. Farkas et al.
 * on pocket-device JVMs), making each class load far more expensive
 * than on the P6 workstation.
 */
ClassLoader::Config
loaderConfigForPlatform(VmKind kind, const Program &program,
                        sim::PlatformKind platform)
{
    ClassLoader::Config c = loaderConfigFor(kind, program);
    if (platform == sim::PlatformKind::Pxa255)
        c.costFactor *= 7.0;
    return c;
}

} // namespace

ClassLoader::Config
loaderConfigFor(VmKind kind, const Program &program)
{
    ClassLoader::Config c;
    if (kind == VmKind::Jikes) {
        // System classes are merged with the JVM binary (Section VI-E).
        c.bootClassesPreloaded = true;
        c.bootClassCount = program.bootClassCount;
        c.costFactor = 1.0;
    } else {
        // Kaffe loads everything lazily and its class-file parser is
        // slower, generating many more CL calls during initialization.
        c.bootClassesPreloaded = false;
        c.bootClassCount = program.bootClassCount;
        c.costFactor = 1.4;
        c.eagerLoadProbability = 0.45;
    }
    return c;
}

Jvm::Jvm(sim::System &system, const Program &program,
         const JvmConfig &config)
    : Jvm(system, program, config, nullptr)
{
}

Jvm::Jvm(sim::System &system, const Program &program,
         const JvmConfig &config, core::ComponentPort &shared_port)
    : Jvm(system, program, config, &shared_port)
{
}

Jvm::Jvm(sim::System &system, const Program &program,
         const JvmConfig &config, core::ComponentPort *shared_port)
    : system_(system), program_(program), config_(config),
      ownedPort_(shared_port
                     ? nullptr
                     : std::make_unique<core::ComponentPort>(
                           system, core::ComponentPort::Config{
                                       config.chargePortWrites})),
      port_(shared_port ? *shared_port : *ownedPort_),
      heap_(config.heapBytes),
      om_(heap_, system.cpu(), program.classes),
      loader_(system, port_, program,
              loaderConfigForPlatform(config.kind, program,
                                      system.spec().kind),
              program.randSeed ^ 1),
      compiler_(system, port_),
      statics_(system, program.numStatics),
      methodRt_(program.methods.size())
{
    // A Kaffe VM compiles through its JIT; guard against configs that
    // forgot to derive the interpreter settings from the personality.
    if (config_.kind == VmKind::Kaffe &&
        config_.interp.compileOnInvoke == Tier::Baseline)
        config_.interp.compileOnInvoke = Tier::Jitted;

    const GcEnv env{heap_, om_, system_, *this,
                    config_.chargeBarrierCost};
    collector_ = makeCollector(config_.collector, env);

    engine_ = std::make_unique<Interpreter>(
        system_, port_, program_, om_, *collector_, loader_, compiler_,
        methodRt_, statics_, config_.interp);
    engine_->onQuantum = [this] {
        serviceQuantum();
        if (yieldEachQuantum_)
            engine_->requestYield();
    };

    if (config_.kind == VmKind::Jikes && config_.adaptiveOptimization) {
        samplerTask_ = system_.addPeriodicTask(
            kSampleInterval, [this](Tick now) { adaptiveSample(now); });
    }
}

Jvm::~Jvm()
{
    // The System outlives this VM (several VMs may run back to back on
    // one System); its sampler task must not outlive it.
    if (samplerTask_)
        system_.removePeriodicTask(samplerTask_);
}

void
Jvm::chargeSchedulerDispatch()
{
    // Thread-scheduler dispatch path: save/restore, queue manipulation,
    // and the component-ID write the paper adds to the Jikes scheduler.
    core::ComponentScope scope(port_, core::ComponentId::Scheduler);
    system_.cpu().execute(40, kSchedulerCode, 160);
    system_.cpu().store(kStackBase + 0x10000);
}

void
Jvm::gcBegin(bool major)
{
    (void)major;
    // Jikes runs collections on the GC thread: dispatching it goes
    // through the scheduler. Kaffe brackets inline (its increments are
    // too short for a thread switch).
    if (config_.kind == VmKind::Jikes)
        chargeSchedulerDispatch();
    port_.push(core::ComponentId::Gc);
}

void
Jvm::gcEnd(bool major)
{
    (void)major;
    port_.pop();
    if (config_.kind == VmKind::Jikes)
        chargeSchedulerDispatch();
}

void
Jvm::forEachRoot(const std::function<void(Address &)> &fn)
{
    sim::CpuModel &cpu = system_.cpu();

    // Statics table: every slot is scanned.
    for (std::uint32_t i = 0; i < statics_.count(); ++i) {
        cpu.load(statics_.slotAddr(i));
        Address &slot = statics_.slotHost(i);
        const Address before = slot;
        fn(slot);
        if (slot != before)
            cpu.store(statics_.slotAddr(i));
    }

    // Thread stacks: every live reference register.
    std::size_t idx = 0;
    engine_->forEachStackRoot([&](Address &ref) {
        cpu.load(kStackBase + idx * kSlotBytes);
        const Address before = ref;
        fn(ref);
        if (ref != before)
            cpu.store(kStackBase + idx * kSlotBytes);
        ++idx;
    });
}

void
Jvm::adaptiveSample(Tick now)
{
    (void)now;
    if (!running_ || !onCpu_)
        return;
    // Timer-driven method sampling plus the controller-thread decision
    // logic (measured at <1% of execution in the paper; we keep it
    // visible under the Scheduler component).
    core::ComponentScope scope(port_, core::ComponentId::Scheduler);
    system_.cpu().execute(25, kSchedulerCode + 0x400, 100);

    const MethodId mid = engine_->currentMethod();
    MethodRuntime &rt = methodRt_[mid];
    ++rt.samples;
    if (rt.tier == Tier::Baseline && !rt.optRequested &&
        rt.samples >= kHotSampleThreshold) {
        rt.optRequested = true;
        compiler_.optCompileStart(program_.methods[mid], rt);
        optQueue_.push_back(mid);
    }
}

void
Jvm::serviceQuantum()
{
    if (optQueue_.empty())
        return;
    // Dispatch the optimizing-compiler thread for one slice.
    chargeSchedulerDispatch();
    {
        core::ComponentScope scope(port_, core::ComponentId::OptCompiler);
        const MethodId mid = optQueue_.front();
        if (compiler_.optCompileStep(program_.methods[mid], methodRt_[mid],
                                     kOptSliceUnits))
            optQueue_.pop_front();
    }
    chargeSchedulerDispatch();
}

void
Jvm::beginService()
{
    serviceStartTick_ = system_.cpu().now();
    port_.rawWrite(core::ComponentId::App);
    running_ = true;

    // Kaffe has a long initialization period characterized by a high
    // number of calls to the class loader: system classes are loaded
    // through the normal lazy path at VM startup (Section VI-E).
    if (config_.kind == VmKind::Kaffe) {
        for (ClassId id = 0; id < program_.bootClassCount; ++id)
            loader_.ensureLoaded(id);
    }
}

void
Jvm::startRequest()
{
    engine_->start(program_.entry);
}

bool
Jvm::runRequestSlice()
{
    const bool finished = engine_->runSlice();
    if (finished)
        lastReturnValue_ = engine_->result();
    return finished;
}

RunResult
Jvm::endService()
{
    running_ = false;
    RunResult res;
    res.startTick = serviceStartTick_;
    res.returnValue = lastReturnValue_;
    res.endTick = system_.cpu().now();
    res.bytecodesExecuted = engine_->bytecodesExecuted();
    res.gc = collector_->stats();
    res.classesLoaded = loader_.classesLoaded();
    res.methodsCompiled = compiler_.methodsCompiled();
    res.methodsOptimized = compiler_.methodsOptimized();
    return res;
}

RunResult
Jvm::run()
{
    beginService();

    bool oom = false, so = false;
    try {
        startRequest();
        while (!runRequestSlice()) {
        }
    } catch (const OutOfMemoryError &) {
        oom = true;
    } catch (const StackOverflowError &) {
        so = true;
    }

    RunResult res = endService();
    res.outOfMemory = oom;
    res.stackOverflow = so;
    return res;
}

} // namespace jvm
} // namespace javelin
