/**
 * @file
 * Tests for the VM services above the collector: class loader policy,
 * compiler models, the adaptive optimization system, component
 * bracketing, and the two VM personalities.
 */

#include <gtest/gtest.h>

#include "core/daq.hh"
#include "core/ground_truth.hh"
#include "jvm/jvm.hh"
#include "jvm/method_builder.hh"
#include "sim/platform.hh"
#include "workloads/program_builder.hh"
#include "workloads/suite.hh"

using namespace javelin;
using namespace javelin::jvm;

namespace {

Program
hotLoopProgram(std::uint32_t iters)
{
    Program p;
    p.name = "hotloop";
    p.numStatics = 2;
    p.bootClassCount = 2;
    for (int i = 0; i < 4; ++i) {
        ClassInfo c;
        c.id = static_cast<ClassId>(i);
        c.name = "C" + std::to_string(i);
        c.refFields = 1;
        c.scalarFields = 1;
        c.metadataBytes = 800;
        if (i >= 2 && i < 3)
            c.referencedClasses.push_back(3);
        p.classes.push_back(c);
    }

    // hot(n): tight loop.
    MethodBuilder hot(p, "hot", 2, 1, 0);
    {
        const auto i = hot.ireg();
        const auto s = hot.ireg();
        const auto one = hot.constant(1);
        hot.emit(Op::IConst, i, 0);
        const auto loop = hot.here();
        const auto exit = hot.emit(Op::IfGe, i, 0, 0);
        hot.emit(Op::IAdd, s, s, i);
        hot.emit(Op::IMul, s, s, one);
        hot.emit(Op::IXor, s, s, i);
        hot.emit(Op::IAdd, i, i, one);
        hot.emit(Op::Goto, static_cast<std::int32_t>(loop));
        hot.patchTarget(exit, hot.here());
        hot.finishRet(s);
    }

    MethodBuilder mb(p, "main", 2);
    const auto n = mb.constant(static_cast<std::int32_t>(iters));
    const auto out = mb.ireg();
    mb.emit(Op::New, mb.rreg(), 3); // force-load class 3
    mb.emit(Op::Call, out, 0, n, 0);
    p.entry = mb.finishRet(out);
    p.layout();
    return p;
}

} // namespace

TEST(ClassLoader, JikesBootClassesAreFree)
{
    const Program p = hotLoopProgram(100);
    sim::System system(sim::p6Spec());
    JvmConfig cfg;
    cfg.kind = VmKind::Jikes;
    cfg.heapBytes = 256 * kKiB;
    Jvm vm(system, p, cfg);
    EXPECT_TRUE(vm.classLoader().isLoaded(0));
    EXPECT_TRUE(vm.classLoader().isLoaded(1));
    EXPECT_FALSE(vm.classLoader().isLoaded(3));
}

TEST(ClassLoader, KaffeLoadsBootClassesAtStartup)
{
    const Program p = hotLoopProgram(100);
    sim::System system(sim::p6Spec());
    JvmConfig cfg;
    cfg.kind = VmKind::Kaffe;
    cfg.collector = CollectorKind::IncrementalMS;
    cfg.heapBytes = 256 * kKiB;
    Jvm vm(system, p, cfg);
    EXPECT_FALSE(vm.classLoader().isLoaded(0)); // lazy until run()
    vm.run();
    EXPECT_TRUE(vm.classLoader().isLoaded(0));
    EXPECT_TRUE(vm.classLoader().isLoaded(3)); // loaded by New
}

TEST(ClassLoader, LoadChargesClAndIsBracketed)
{
    const Program p = hotLoopProgram(100);
    sim::System system(sim::p6Spec());
    JvmConfig cfg;
    cfg.heapBytes = 256 * kKiB;
    Jvm vm(system, p, cfg);
    core::GroundTruthAccountant truth(system, vm.port());
    vm.run();
    truth.finalize();
    EXPECT_GT(truth.slice(core::ComponentId::ClassLoader).cpuJoules, 0.0);
    EXPECT_GT(vm.classLoader().classesLoaded(), 2u);
}

TEST(ClassLoader, LoadingIsIdempotent)
{
    const Program p = hotLoopProgram(10);
    sim::System system(sim::p6Spec());
    JvmConfig cfg;
    cfg.heapBytes = 256 * kKiB;
    Jvm vm(system, p, cfg);
    vm.classLoader().ensureLoaded(3);
    const auto cycles = system.counters().cycles;
    vm.classLoader().ensureLoaded(3);
    EXPECT_EQ(system.counters().cycles, cycles); // second load free
}

TEST(Compilers, BaselineCompilesOnFirstInvoke)
{
    const Program p = hotLoopProgram(500);
    sim::System system(sim::p6Spec());
    JvmConfig cfg;
    cfg.kind = VmKind::Jikes;
    cfg.heapBytes = 256 * kKiB;
    cfg.adaptiveOptimization = false;
    Jvm vm(system, p, cfg);
    vm.run();
    EXPECT_EQ(vm.compiler().methodsCompiled(), 2u); // main + hot
    EXPECT_EQ(vm.compiler().methodsOptimized(), 0u);
}

TEST(Compilers, KaffeUsesJit)
{
    const Program p = hotLoopProgram(500);
    sim::System system(sim::p6Spec());
    JvmConfig cfg;
    cfg.kind = VmKind::Kaffe;
    cfg.collector = CollectorKind::IncrementalMS;
    cfg.heapBytes = 256 * kKiB;
    Jvm vm(system, p, cfg);
    core::GroundTruthAccountant truth(system, vm.port());
    vm.run();
    truth.finalize();
    EXPECT_GT(truth.slice(core::ComponentId::Jit).cpuJoules, 0.0);
    EXPECT_EQ(truth.slice(core::ComponentId::BaseCompiler).cpuJoules,
              0.0);
}

TEST(Adaptive, HotMethodGetsOptimized)
{
    const Program p = hotLoopProgram(3'000'000);
    sim::System system(sim::p6Spec());
    JvmConfig cfg;
    cfg.kind = VmKind::Jikes;
    cfg.heapBytes = 256 * kKiB;
    cfg.adaptiveOptimization = true;
    Jvm vm(system, p, cfg);
    core::GroundTruthAccountant truth(system, vm.port());
    const auto r = vm.run();
    truth.finalize();
    EXPECT_FALSE(r.outOfMemory);
    EXPECT_GE(r.methodsOptimized, 1u);
    EXPECT_GT(truth.slice(core::ComponentId::OptCompiler).cpuJoules, 0.0);
    EXPECT_GT(truth.slice(core::ComponentId::Scheduler).cpuJoules, 0.0);
}

TEST(Adaptive, DestroyedVmLeavesNoSamplerTask)
{
    // VMs run back to back on one System (the thermal studies): a dead
    // VM's 100 us sampler must not stay registered, calling into it.
    const Program p = hotLoopProgram(100);
    sim::System system(sim::p6Spec());
    ASSERT_EQ(system.nextTaskDue(), 200 * kTicksPerMicro); // thermal
    {
        JvmConfig cfg;
        cfg.kind = VmKind::Jikes;
        cfg.heapBytes = 256 * kKiB;
        cfg.adaptiveOptimization = true;
        Jvm vm(system, p, cfg);
        EXPECT_EQ(system.nextTaskDue(), 100 * kTicksPerMicro);
    }
    EXPECT_EQ(system.nextTaskDue(), 200 * kTicksPerMicro);
}

TEST(Adaptive, OptimizationPaysOffOnLongRuns)
{
    const auto timeFor = [](bool adaptive) {
        const Program p = hotLoopProgram(3'000'000);
        sim::System system(sim::p6Spec());
        JvmConfig cfg;
        cfg.heapBytes = 256 * kKiB;
        cfg.adaptiveOptimization = adaptive;
        Jvm vm(system, p, cfg);
        vm.run();
        return system.cpu().now();
    };
    EXPECT_LT(timeFor(true), timeFor(false));
}

TEST(Adaptive, ResultUnchangedByOptimization)
{
    const auto resultFor = [](bool adaptive) {
        const Program p = hotLoopProgram(2'000'000);
        sim::System system(sim::p6Spec());
        JvmConfig cfg;
        cfg.heapBytes = 256 * kKiB;
        cfg.adaptiveOptimization = adaptive;
        Jvm vm(system, p, cfg);
        return vm.run().returnValue;
    };
    EXPECT_EQ(resultFor(true), resultFor(false));
}

TEST(Jvm, GcBracketedOnPort)
{
    const Program p = workloads::buildProgram(
        workloads::benchmark("_202_jess"),
        workloads::studyScaleFor(workloads::DatasetScale::Small));
    sim::System system(sim::p6Spec());
    JvmConfig cfg;
    cfg.collector = CollectorKind::SemiSpace;
    cfg.heapBytes = 1 * kMiB;
    Jvm vm(system, p, cfg);
    core::GroundTruthAccountant truth(system, vm.port());
    const auto r = vm.run();
    truth.finalize();
    ASSERT_FALSE(r.outOfMemory);
    EXPECT_GT(r.gc.collections, 0u);
    EXPECT_GT(truth.slice(core::ComponentId::Gc).cpuJoules, 0.0);
    EXPECT_EQ(vm.port().current(), core::ComponentId::App);
    EXPECT_EQ(vm.port().depth(), 0u);
}

TEST(Jvm, RunResultBookkeeping)
{
    const Program p = hotLoopProgram(1000);
    sim::System system(sim::p6Spec());
    JvmConfig cfg;
    cfg.heapBytes = 256 * kKiB;
    Jvm vm(system, p, cfg);
    const auto r = vm.run();
    EXPECT_GT(r.bytecodesExecuted, 1000u);
    EXPECT_GT(r.endTick, r.startTick);
    EXPECT_GT(r.seconds(), 0.0);
    EXPECT_GT(r.methodsCompiled, 0u);
}

TEST(Jvm, PortWriteChargingConfigurable)
{
    const auto cyclesFor = [](bool charge) {
        const Program p = hotLoopProgram(10000);
        sim::System system(sim::p6Spec());
        JvmConfig cfg;
        cfg.heapBytes = 256 * kMiB / 256;
        cfg.chargePortWrites = charge;
        Jvm vm(system, p, cfg);
        vm.run();
        return system.counters().cycles;
    };
    EXPECT_GE(cyclesFor(true), cyclesFor(false));
}

TEST(Jvm, VmKindNames)
{
    EXPECT_STREQ(vmKindName(VmKind::Jikes), "JikesRVM");
    EXPECT_STREQ(vmKindName(VmKind::Kaffe), "Kaffe");
}
