/**
 * @file
 * M2: simulator micro-benchmarks (google-benchmark): raw host-side
 * throughput of the cache model, the interpreter's dispatch loop and
 * full end-to-end experiments (bytecodes per second of host time), so
 * regressions in simulation speed are visible.
 */

#include <benchmark/benchmark.h>

#include "harness/experiment.hh"
#include "jvm/jvm.hh"
#include "jvm/method_builder.hh"
#include "sim/platform.hh"
#include "util/random.hh"

using namespace javelin;

namespace {

void
BM_CacheAccess(benchmark::State &state)
{
    sim::Cache cache({"l1", 32 * kKiB, 8, 64});
    Rng rng(1);
    std::uint64_t hits = 0;
    for (auto _ : state) {
        const sim::Address a = rng.uniformInt(1 << state.range(0));
        hits += cache.access(a, false).hit;
    }
    benchmark::DoNotOptimize(hits);
    state.SetItemsProcessed(state.iterations());
}

void
BM_InterpreterDispatch(benchmark::State &state)
{
    // ALU/branch-dense loop run entirely under the interpreted tier:
    // no heap traffic, no GC, no compilation, so host time is dominated
    // by the trace executor's segment folding and interpreted-tier
    // cost-table path. Pins that throughput independently of the
    // end-to-end pipeline.
    jvm::Program p;
    p.name = "dispatch";
    jvm::ClassInfo cls;
    cls.id = 0;
    cls.name = "Main";
    p.classes.push_back(cls);
    jvm::MethodBuilder mb(p, "main", 0);
    const auto acc = mb.constant(0);
    const auto one = mb.constant(1);
    const auto tmp = mb.constant(3);
    const auto n = mb.constant(50000);
    const auto i = mb.constant(0);
    const auto top = mb.here();
    mb.emit(jvm::Op::IAdd, acc, acc, one);
    mb.emit(jvm::Op::IXor, tmp, acc, i);
    mb.emit(jvm::Op::ISub, acc, acc, tmp);
    mb.emit(jvm::Op::IAdd, i, i, one);
    const auto br = mb.emit(jvm::Op::IfLt, i, n, 0);
    mb.patchTarget(br, top);
    p.entry = mb.finishHalt();
    p.layout();

    std::uint64_t total_bytecodes = 0;
    for (auto _ : state) {
        sim::System system(sim::p6Spec());
        jvm::JvmConfig cfg;
        cfg.interp.compileOnInvoke = jvm::Tier::Interpreted;
        cfg.adaptiveOptimization = false;
        jvm::Jvm vm(system, p, cfg);
        const auto r = vm.run();
        benchmark::DoNotOptimize(r.returnValue);
        total_bytecodes += r.bytecodesExecuted;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(total_bytecodes));
    state.counters["bytecodes_per_sec"] =
        benchmark::Counter(static_cast<double>(total_bytecodes),
                           benchmark::Counter::kIsRate);
}

void
BM_EndToEndExperiment(benchmark::State &state)
{
    // Full pipeline: build + run one small benchmark with measurement.
    std::uint64_t total_bytecodes = 0;
    for (auto _ : state) {
        harness::ExperimentConfig cfg;
        cfg.dataset = workloads::DatasetScale::Small;
        cfg.heapNominalMB = 32;
        const auto res = harness::runExperiment(
            cfg, workloads::benchmark("_202_jess"));
        benchmark::DoNotOptimize(res.run.returnValue);
        total_bytecodes += res.run.bytecodesExecuted;
        state.counters["bytecodes"] =
            static_cast<double>(res.run.bytecodesExecuted);
    }
    // Host-side simulation throughput, compared pair by pair against
    // the base revision by scripts/ab.py.
    state.counters["bytecodes_per_sec"] =
        benchmark::Counter(static_cast<double>(total_bytecodes),
                           benchmark::Counter::kIsRate);
}

void
BM_EndToEndCallHeavy(benchmark::State &state)
{
    // Call-dominated pipeline: the synthetic call_heavy profile is
    // jess-shaped but with most of the compute replaced by a deep
    // helper chain, per-iteration recursion and six cold calls through
    // the dispatch tree, so frames push and pop every handful of
    // bytecodes. This is the benchmark the trace executor's inline
    // Call/Ret path (DESIGN.md §5g) is gated on: before it, every call
    // exited runTraceFast back to generic dispatch.
    std::uint64_t total_bytecodes = 0;
    for (auto _ : state) {
        harness::ExperimentConfig cfg;
        cfg.dataset = workloads::DatasetScale::Small;
        cfg.heapNominalMB = 32;
        const auto res = harness::runExperiment(
            cfg, workloads::benchmark("call_heavy"));
        benchmark::DoNotOptimize(res.run.returnValue);
        total_bytecodes += res.run.bytecodesExecuted;
        state.counters["gc_count"] =
            static_cast<double>(res.run.gc.collections);
        state.counters["bytecodes"] =
            static_cast<double>(res.run.bytecodesExecuted);
    }
    state.counters["bytecodes_per_sec"] =
        benchmark::Counter(static_cast<double>(total_bytecodes),
                           benchmark::Counter::kIsRate);
}

void
BM_EndToEndMutatorHeavy(benchmark::State &state)
{
    // Mutator-dominated pipeline: _201_compress is the suite's
    // compute-dense workload (tight ALU/array kernels, low allocation
    // rate), and a generous heap (64 MB nominal) keeps collections to a
    // handful, so host time concentrates in the interpreter execute
    // path — the trace executor, the folded segment charges and the
    // per-tier cost tables (DESIGN.md §5f). This is the benchmark the
    // execute-batching fast path is gated on; the gc_count counter
    // makes an accidental drift into GC-bound territory visible.
    std::uint64_t total_bytecodes = 0;
    for (auto _ : state) {
        harness::ExperimentConfig cfg;
        cfg.dataset = workloads::DatasetScale::Small;
        cfg.heapNominalMB = 64;
        const auto res = harness::runExperiment(
            cfg, workloads::benchmark("_201_compress"));
        benchmark::DoNotOptimize(res.run.returnValue);
        total_bytecodes += res.run.bytecodesExecuted;
        state.counters["gc_count"] =
            static_cast<double>(res.run.gc.collections);
        state.counters["bytecodes"] =
            static_cast<double>(res.run.bytecodesExecuted);
    }
    state.counters["bytecodes_per_sec"] =
        benchmark::Counter(static_cast<double>(total_bytecodes),
                           benchmark::Counter::kIsRate);
}

} // namespace

BENCHMARK(BM_CacheAccess)->Arg(14)->Arg(18)->Arg(24);
BENCHMARK(BM_InterpreterDispatch)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EndToEndExperiment)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EndToEndCallHeavy)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EndToEndMutatorHeavy)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
