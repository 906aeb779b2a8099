#include "jvm/interpreter.hh"

#include <algorithm>

#include "jvm/op_costs.hh"

namespace javelin {
namespace jvm {

namespace {

using op_costs::isTraceable;
using op_costs::kBaseUops;

/**
 * Division with the INT64_MIN / -1 overflow case defined as wrap
 * (-fwrapv covers add/sub/mul but not division overflow). b / -1 is
 * -b for every other b, so this only defines the one UB input.
 */
inline std::int64_t
wrapDiv(std::int64_t a, std::int64_t b)
{
    if (b == -1)
        return static_cast<std::int64_t>(-static_cast<std::uint64_t>(a));
    return a / b;
}

} // namespace

Interpreter::Interpreter(sim::System &system, core::ComponentPort &port,
                         const Program &program, ObjectModel &om,
                         Collector &collector, ClassLoader &loader,
                         CompilerModel &compiler,
                         std::vector<MethodRuntime> &method_rt,
                         Statics &statics, const Config &config)
    : system_(system), port_(port), program_(program), om_(om),
      collector_(collector), loader_(loader), compiler_(compiler),
      methodRt_(method_rt), statics_(statics), config_(config),
      rng_(program.randSeed),
      needsBarrier_(collector.needsWriteBarrier())
{
    JAVELIN_ASSERT(methodRt_.size() == program_.methods.size(),
                   "method runtime table size mismatch");
    frames_.reserve(kMaxStackDepth);
    // The per-method superinstruction tables (run lengths, micro-op and
    // FP-stall prefix sums) are built once by Program::layout() and
    // shared by every engine instance (DESIGN.md §5g).
    std::uint32_t max_int = 0;
    std::uint32_t max_ref = 0;
    for (const auto &m : program_.methods) {
        JAVELIN_ASSERT(m.runLen.size() == m.code.size() &&
                           m.fpStallHalfPrefix.size() ==
                               m.code.size() + 1,
                       "Program::layout() not run before execution of ",
                       m.name);
        max_int = std::max<std::uint32_t>(max_int, m.nIntRegs);
        max_ref = std::max<std::uint32_t>(max_ref, m.nRefRegs);
    }
    // Worst-case pool sizes: storage allocated once and never moved
    // (see the member comment).
    intRegs_.assign(
        static_cast<std::size_t>(kMaxStackDepth) * max_int, 0);
    refRegs_.assign(
        static_cast<std::size_t>(kMaxStackDepth) * max_ref,
        kNull);
    buildTierCosts();
}

void
Interpreter::buildTierCosts()
{
    const auto &costs = compiler_.costs();
    for (unsigned t = 0; t < 4; ++t) {
        const Tier tier = static_cast<Tier>(t);
        TierCost &tc = tierCosts_[t];
        switch (tier) {
          case Tier::Interpreted:
            tc.dispatchUops = 12;
            tc.bytesPerBc = 0; // dispatch fetches 48 B of handler code
            break;
          case Tier::Baseline:
            tc.dispatchUops = 4;
            tc.bytesPerBc = costs.baselineBytesPerBc;
            break;
          case Tier::Jitted:
            tc.dispatchUops = 5;
            tc.bytesPerBc = costs.jitBytesPerBc;
            break;
          case Tier::Optimized:
            tc.dispatchUops = 2;
            tc.bytesPerBc = costs.optBytesPerBc;
            break;
        }
        // Frame-local spill/reload gate: the original spillOneIn was 4
        // for optimized code and 1 otherwise — both powers of two, so
        // the modulo becomes a mask and the counter behaves the same.
        tc.spillMask = tier == Tier::Optimized ? 3u : 0u;
        for (std::size_t op = 0; op < kNumOps; ++op) {
            // The shared transform keeps these tables and the prefix
            // sums Program::layout() caches in lockstep by
            // construction (op_costs.hh).
            const std::uint32_t v =
                op_costs::tierSemUops(tier, kBaseUops[op]);
            tc.uops[op] = static_cast<std::uint8_t>(v);
            tc.opExecUops[op] =
                static_cast<std::uint8_t>(tc.dispatchUops + v);
        }
    }
}

MethodId
Interpreter::currentMethod() const
{
    return frames_.empty() ? program_.entry : frames_.back().method->id;
}

void
Interpreter::forEachStackRoot(const std::function<void(Address &)> &fn)
{
    // Only the live prefix holds roots; slots above the top are stale
    // windows of popped frames.
    for (std::uint32_t i = 0; i < refTop_; ++i)
        fn(refRegs_[i]);
}

void
Interpreter::prepareMethod(MethodId id)
{
    MethodRuntime &rt = methodRt_[id];
    ++rt.invocations;
    if (rt.tier != Tier::Interpreted ||
        config_.compileOnInvoke == Tier::Interpreted)
        return;
    const MethodInfo &m = program_.methods[id];
    loader_.ensureLoaded(m.holder);
    if (config_.compileOnInvoke == Tier::Jitted)
        compiler_.jitCompile(m, rt);
    else
        compiler_.baselineCompile(m, rt);
}

void
Interpreter::pushFrame(MethodId id, const Frame *caller,
                       std::int32_t ret_dst, std::int32_t int_arg_base,
                       std::int32_t ref_arg_base)
{
    if (frames_.size() >= kMaxStackDepth)
        throw StackOverflowError{};
    prepareMethod(id);

    const MethodInfo &m = program_.methods[id];
    Frame f;
    f.method = &m;
    f.rt = &methodRt_[id];
    f.runLen = m.runLen.data();
    f.pc = 0;
    f.intBase = intTop_;
    f.refBase = refTop_;
    f.retDst = ret_dst;
    // Fresh window: zero-fill in place (the pools are pre-sized for
    // the deepest possible stack, so the top can never pass the end).
    std::fill_n(intRegs_.data() + intTop_, m.nIntRegs,
                std::int64_t{0});
    std::fill_n(refRegs_.data() + refTop_, m.nRefRegs, kNull);
    intTop_ += m.nIntRegs;
    refTop_ += m.nRefRegs;

    if (caller) {
        for (std::uint32_t i = 0; i < m.nIntArgs; ++i)
            intRegs_[f.intBase + i] =
                intRegs_[caller->intBase + int_arg_base + i];
        for (std::uint32_t i = 0; i < m.nRefArgs; ++i)
            refRegs_[f.refBase + i] =
                refRegs_[caller->refBase + ref_arg_base + i];
    }
    frames_.push_back(f);

    // Frame setup: link, spill, prologue.
    sim::CpuModel &cpu = system_.cpu();
    cpu.execute(6, kVmCodeBase + 0x1e000, 24);
    cpu.store(kStackBase + frames_.size() * 64);
}

void
Interpreter::popFrame(std::int64_t value)
{
    const std::int32_t ret_dst = frames_.back().retDst;
    intTop_ = frames_.back().intBase;
    refTop_ = frames_.back().refBase;
    frames_.pop_back();

    sim::CpuModel &cpu = system_.cpu();
    cpu.execute(4, kVmCodeBase + 0x1e400, 16);
    cpu.load(kStackBase + (frames_.size() + 1) * 64);

    if (frames_.empty()) {
        result_ = value;
    } else if (ret_dst >= 0) {
        const Frame &caller = frames_.back();
        intRegs_[caller.intBase + ret_dst] = value;
    }
}

Address
Interpreter::allocObject(ClassId cls_id, std::uint32_t array_len)
{
    loader_.ensureLoaded(cls_id);
    const ClassInfo &cls = program_.classOf(cls_id);
    const std::uint32_t bytes = om_.objectBytes(cls, array_len);
    const Address addr = collector_.allocate(bytes);
    if (addr == kNull)
        throw OutOfMemoryError{bytes};
    om_.initObject(addr, cls, bytes, array_len);
    collector_.postInit(addr);
    return addr;
}

std::uint32_t
Interpreter::pollFreeIterations(const sim::CpuModel &cpu) const
{
    const Tick due = system_.nextTaskDue();
    const Tick now = cpu.now();
    if (due <= now)
        return 1; // a task is due: poll right after the next iteration
    const Tick slack = due - now;

    // Conservative bound on how far one full chunk iteration (64-uop
    // execute spanning 256 code bytes + one load) can advance time:
    // every access takes its worst-case penalty (L1 dirty victim, L2
    // miss with dirty victim, DRAM, prefetch catch-up) and stalls are
    // never overlapped. The true advance is strictly smaller, so polls
    // skipped inside the bound are provably no-ops.
    const auto &mem = system_.memory().config();
    const double maxPenalty =
        2.0 * mem.writebackCycles + mem.l2HitCycles +
        static_cast<double>(mem.dramCycles) +
        static_cast<double>(mem.dramCycles) / 3.0;
    const double penaltyScale =
        std::max(1.0, cpu.config().memStallFactor);
    const double maxAccesses = 256.0 / mem.l1i.lineBytes + 2.0;
    const double maxCycles = 65.0 * cpu.config().baseCpi +
                             (maxAccesses + 1.0) * maxPenalty *
                                 penaltyScale +
                             16.0;
    const double maxTicksPerIter =
        maxCycles * cpu.effectivePeriodTicks() * 1.0625 + 2.0;

    const double iters = static_cast<double>(slack) / maxTicksPerIter;
    if (iters >= 4.0e9)
        return 0xFFFFFFFFu;
    return static_cast<std::uint32_t>(iters) + 1;
}

void
Interpreter::doNativeWork(std::uint32_t uops, std::uint32_t bytes)
{
    sim::CpuModel &cpu = system_.cpu();
    constexpr std::uint64_t kWindow = 1 << 20;
    std::uint32_t remaining = uops;
    std::uint32_t off = 0;
    while (remaining > 0 || off < bytes) {
        // Hoisted-poll fast path: a run of full 64-uop + 64-byte-load
        // iterations short enough that no periodic task can come due
        // before it ends (pollFreeIterations), issued through the
        // order-preserving mixed block, then one poll at exactly the
        // tick the per-iteration loop would have polled next.
        if (remaining >= 64 && off + 64 <= bytes) {
            const std::uint32_t full =
                std::min(remaining / 64, (bytes - off) / 64);
            const std::uint32_t n =
                std::min(full, pollFreeIterations(cpu));
            if (n > 1) {
                cpu.execLoadBlock(n, 64, kVmCodeBase + 0x1c000, 64 * 4,
                                  kNativeBase, nativeCursor_,
                                  kWindow - 1, 64);
                remaining -= n * 64;
                off += n * 64;
                nativeCursor_ += static_cast<std::uint64_t>(n) * 64;
                system_.poll();
                continue;
            }
        }
        // Ragged head/tail (and task-imminent) iterations keep the
        // original per-iteration sequence and poll cadence.
        const std::uint32_t chunk = std::min<std::uint32_t>(remaining, 64);
        if (chunk)
            cpu.execute(chunk, kVmCodeBase + 0x1c000, chunk * 4);
        remaining -= chunk;
        if (off < bytes) {
            cpu.load(kNativeBase + (nativeCursor_ % kWindow));
            nativeCursor_ += 64;
            off += 64;
        }
        system_.poll();
    }
}

std::uint32_t
Interpreter::sumSegmentUops(const Frame &f, const TierCost &tc,
                            std::uint32_t pc0, std::uint32_t n,
                            double *stall_cycles) const
{
    // Two prefix-sum lookups replace the per-op walk (DESIGN.md §5g).
    // FP stalls are multiples of 0.5, so the half-cycle prefix
    // difference scaled by 0.5 is bit-identical to summing 2.5/3.5
    // per op in any order.
    const MethodInfo &m = *f.method;
    const auto &pref =
        m.semUopPrefix[static_cast<unsigned>(f.rt->tier)];
    *stall_cycles = 0.5 * (m.fpStallHalfPrefix[pc0 + n] -
                           m.fpStallHalfPrefix[pc0]);
    return n * tc.dispatchUops + (pref[pc0 + n] - pref[pc0]);
}

void
Interpreter::emitSegmentCharges(sim::CpuModel &cpu, const Frame &f,
                                const TierCost &tc, std::uint32_t pc0,
                                std::uint32_t n, std::uint32_t uops,
                                double stall_cycles)
{
    if (f.rt->tier == Tier::Interpreted) {
        // One folded execute for the run's dispatch + semantic
        // micro-ops; the run's handler code is charged as a single
        // resident 48-byte fetch span at the first handler (precedent:
        // the GC copy loop's fixed kCopyCodeBytes span). The operand
        // fetches stay per-bytecode, threaded through the one-line
        // bytecode stream buffer: only a word in a fresh D-line
        // reaches the cache (DESIGN.md §5g).
        cpu.execute(uops,
                    kInterpreterCodeBase +
                        static_cast<Address>(f.method->code[pc0].op) *
                            128,
                    48);
        cpu.loadBufferedBlock(
            f.method->bytecodeAddr +
                static_cast<Address>(pc0) * sizeof(Instruction),
            n, sizeof(Instruction), bcFetchLine_);
    } else {
        // Compiled tiers: the run's emitted code is contiguous — one
        // execute spanning it touches exactly the lines the per-op
        // walk did, each once.
        cpu.execute(uops,
                    f.rt->codeAddr +
                        static_cast<Address>(pc0) * tc.bytesPerBc,
                    n * tc.bytesPerBc);
    }
    if (tc.spillMask == 0) {
        // The spill gate fires on every bytecode for mask 0: the run's
        // loads walk the same wrapping 256-byte stack window.
        spillCounter_ += n;
        cpu.loadWindowBlock(n, kStackBase + frames_.size() * 256,
                            static_cast<std::uint64_t>(pc0) * 8, 0xf8, 8);
    } else {
        for (std::uint32_t j = 0; j < n; ++j)
            if (((++spillCounter_) & tc.spillMask) == 0)
                cpu.load(kStackBase + frames_.size() * 256 +
                         (((pc0 + j) * 8) & 0xf8));
    }
    if (stall_cycles != 0.0)
        cpu.stall(stall_cycles);
}

void
Interpreter::runSegmentFast(sim::CpuModel &cpu, Frame &f,
                            const TierCost &tc, std::uint32_t pc0,
                            std::uint32_t n)
{
    const Instruction *code = f.method->code.data() + pc0;
    std::int64_t *ir = intRegs_.data() + f.intBase;
    // The segment's charge sums come from the program's precomputed
    // prefix tables (sumSegmentUops), so this loop is pure semantics;
    // host-side register writes are invisible to the cost model.
    double stall = 0.0;
    const std::uint32_t uops = sumSegmentUops(f, tc, pc0, n, &stall);
    for (std::uint32_t j = 0; j < n; ++j) {
        const Instruction &in = code[j];
        switch (in.op) {
          case Op::Nop:
            break;
          case Op::IConst:
            ir[in.a] = in.b;
            break;
          case Op::Move:
            ir[in.a] = ir[in.b];
            break;
          case Op::IAdd:
            ir[in.a] = ir[in.b] + ir[in.c];
            break;
          case Op::ISub:
            ir[in.a] = ir[in.b] - ir[in.c];
            break;
          case Op::IMul:
            ir[in.a] = ir[in.b] * ir[in.c];
            break;
          case Op::IDiv:
            ir[in.a] =
                ir[in.c] != 0 ? wrapDiv(ir[in.b], ir[in.c]) : 0;
            break;
          case Op::IRem:
            ir[in.a] = (ir[in.c] != 0 && ir[in.c] != -1)
                           ? ir[in.b] % ir[in.c]
                           : 0;
            break;
          case Op::IXor:
            ir[in.a] = ir[in.b] ^ ir[in.c];
            break;
          case Op::FAdd:
            ir[in.a] = ir[in.b] + ir[in.c];
            break;
          case Op::FMul:
            ir[in.a] = ir[in.b] * ir[in.c];
            break;
          case Op::Rand: {
            const std::int64_t bound = ir[in.b];
            ir[in.a] = bound > 0
                           ? static_cast<std::int64_t>(rng_.uniformInt(
                                 static_cast<std::uint64_t>(bound)))
                           : 0;
            break;
          }
          default:
            JAVELIN_PANIC("non-foldable op in a folded segment");
        }
    }
    emitSegmentCharges(cpu, f, tc, pc0, n, uops, stall);
    executed_ += n;
}

/**
 * Fast-path trace executor: runs from the current pc until the next
 * non-traceable op (NativeWork/Halt), folding maximal runs of
 * foldable bytecodes into segment charges (runSegmentFast) and
 * executing branches, heap accessors, allocations and Call/Ret inline
 * with their exact per-op v2 charge stream — the same handler bodies
 * as the oracle, included from interpreter_ops.inc below, preceded by
 * the same dispatch/operand/spill charges the per-op front end emits.
 * Poll and quantum countdowns tick exactly as runSlice's safepoint
 * tail does (segments are clamped so boundaries land between bytecodes),
 * and the tier cost table is re-read after every quantum since the
 * optimizing compiler may have retiered the method.
 *
 * Within a trace, only Call/Ret can resize the frame stack or the
 * register pools, and they jump to the frame-refresh tail below,
 * which re-hoists every cached view after the frame change — in
 * exactly the order the outer dispatch loop observes (handler, then
 * tail checks, then refetch), so a poll's adaptive sample and a
 * quantum's retier see the same frame stack in both modes (DESIGN.md
 * §5g). New/NewArray run inline too: a collection they trigger
 * rewrites root values strictly in place (forEachStackRoot) and never
 * pushes frames or resizes the register pools, so the hoisted code,
 * ir and rr pointers all stay valid across it. A StackOverflowError
 * from an inline Call, or an OutOfMemoryError from an inline
 * allocation, propagates with the same charges emitted as per-op
 * dispatch.
 */
void
Interpreter::runTraceFast(sim::CpuModel &cpu,
                          std::uint32_t &pollCountdown,
                          std::uint32_t &quantumCountdown)
{
    Frame *f = &frames_.back();
    const MethodRuntime *rt = f->rt;
    const TierCost *tc = &tierCosts_[static_cast<unsigned>(rt->tier)];
    const Instruction *code = f->method->code.data();
    std::int64_t *ir = intRegs_.data() + f->intBase;
    Address *rr = refRegs_.data() + f->refBase;
    const Instruction *in = nullptr;
    std::uint32_t next = 0;

    for (;;) {
        {
            JAVELIN_ASSERT(f->pc < f->method->code.size(),
                           "pc fell off method ", f->method->name);
            const std::uint32_t run = f->runLen[f->pc];
            double fpStall = 0.0;
            if (run != 0) {
                const std::uint32_t n = std::min(
                    run, std::min(pollCountdown, quantumCountdown));
                if (n > 1) {
                    runSegmentFast(cpu, *f, *tc, f->pc, n);
                    f->pc += n;
                    pollCountdown -= n;
                    if (pollCountdown == 0) {
                        pollCountdown = kPollInterval;
                        system_.poll();
                    }
                    quantumCountdown -= n;
                    if (quantumCountdown == 0) {
                        quantumCountdown = kQuantumBytecodes;
                        if (onQuantum)
                            onQuantum();
                        tc = &tierCosts_[static_cast<unsigned>(
                            rt->tier)];
                        if (yield_)
                            return;
                    }
                    continue;
                }
                // A segment clamped to one bytecode folds to exactly
                // the per-op charge stream below — opExecUops is
                // dispatch + semantic micro-ops, a one-element operand
                // block is one load, the spill gate advances
                // identically — plus the trailing FP stall, so skip
                // the segment call machinery (most static runs are
                // short; this is the hottest case).
                const Op op0 = code[f->pc].op;
                fpStall = op0 == Op::FAdd ? 2.5
                          : op0 == Op::FMul ? 3.5
                                            : 0.0;
            }

            in = &code[f->pc];
            if (!isTraceable(in->op))
                return;

            // The per-op front-end charges, verbatim from runSlice's
            // front end: folded dispatch+semantic execute
            // (plus the bytecode operand fetch when interpreted) and
            // the gated spill load.
            if (rt->tier == Tier::Interpreted) {
                cpu.execute(
                    tc->opExecUops[static_cast<unsigned>(in->op)],
                    kInterpreterCodeBase +
                        static_cast<Address>(in->op) * 128,
                    48);
                cpu.loadBuffered(f->method->bytecodeAddr +
                                     f->pc * sizeof(Instruction),
                                 bcFetchLine_);
            } else {
                cpu.execute(
                    tc->opExecUops[static_cast<unsigned>(in->op)],
                    rt->codeAddr + f->pc * tc->bytesPerBc,
                    tc->bytesPerBc);
            }
            if (((++spillCounter_) & tc->spillMask) == 0)
                cpu.load(kStackBase + frames_.size() * 256 +
                         ((f->pc * 8) & 0xf8));
            if (fpStall != 0.0)
                cpu.stall(fpStall);
            ++executed_;
            next = f->pc + 1;

            // The shared handler bodies. Non-traceable cases compile
            // here but never execute (the guard above returned);
            // foldable cases never execute either (run != 0 took the
            // segment path). Call/Ret jump to the frame-refresh tail.
            switch (in->op) {
#define JAVELIN_OP(name) case Op::name: {
#define JAVELIN_OP_END \
    } \
    break;
#define JAVELIN_OP_END_FRAME \
    } \
    goto javelin_trace_frame_changed;
#include "jvm/interpreter_ops.inc"
#undef JAVELIN_OP_END_FRAME
#undef JAVELIN_OP_END
#undef JAVELIN_OP
            }
            f->pc = next;

            // runSlice's safepoint tail, with the quantum's possible
            // retiering folded in.
            if (--pollCountdown == 0) {
                pollCountdown = kPollInterval;
                system_.poll();
            }
            if (--quantumCountdown == 0) {
                quantumCountdown = kQuantumBytecodes;
                if (onQuantum)
                    onQuantum();
                tc = &tierCosts_[static_cast<unsigned>(rt->tier)];
                if (yield_)
                    return;
            }
            continue;
        }

    javelin_trace_frame_changed:
        // A Call pushed (after saving the resume pc) or a Ret popped
        // the current frame. Tail checks run first — the outer loop
        // also polls after the frame change — then every hoisted view
        // is refreshed from the new top frame. The final Ret leaves
        // the stack empty; dispatch ends the run.
        if (--pollCountdown == 0) {
            pollCountdown = kPollInterval;
            system_.poll();
        }
        if (--quantumCountdown == 0) {
            quantumCountdown = kQuantumBytecodes;
            if (onQuantum)
                onQuantum();
            if (yield_)
                return;
        }
        if (frames_.empty())
            return;
        f = &frames_.back();
        rt = f->rt;
        tc = &tierCosts_[static_cast<unsigned>(rt->tier)];
        code = f->method->code.data();
        ir = intRegs_.data() + f->intBase;
        rr = refRegs_.data() + f->refBase;
    }
}

std::int64_t
Interpreter::run(MethodId entry)
{
    start(entry);
    while (!runSlice()) {
    }
    return result_;
}

void
Interpreter::start(MethodId entry)
{
    JAVELIN_ASSERT(frames_.empty() && !active_,
                   "engine already running");
    halted_ = false;
    result_ = 0;
    segPrepaid_ = 0;
    bcFetchLine_ = ~Address{0};
    pollCountdown_ = kPollInterval;
    quantumCountdown_ = kQuantumBytecodes;
    yield_ = false;
    active_ = true;
    pushFrame(entry, nullptr, -1, 0, 0);
}

void
Interpreter::abortRun()
{
    frames_.clear();
    intTop_ = 0;
    refTop_ = 0;
    segPrepaid_ = 0;
    yield_ = false;
    active_ = false;
}

/**
 * The per-op dispatch loop. With the fast path on, runTraceFast runs
 * everything traceable and this loop only steps the exits it leaves
 * behind (NativeWork, Halt); with it off, the loop steps every
 * bytecode and is the oracle tests/test_interp_diff.cc holds
 * runTraceFast against.
 */
bool
Interpreter::runSlice()
{
    JAVELIN_ASSERT(active_, "runSlice without start");
    yield_ = false;

    sim::CpuModel &cpu = system_.cpu();
    // The countdowns stay in locals through the hot loop (the members
    // only carry them across slices), so single-tenant codegen is
    // unchanged.
    std::uint32_t pollCountdown = pollCountdown_;
    std::uint32_t quantumCountdown = quantumCountdown_;

    for (;;) {
        // Fast-path trace gate: if the pending op is traceable, the
        // whole trace runs in runTraceFast's host loop, and this loop
        // resumes at the first non-traceable op — or with the stack
        // empty after the final Ret, which is why the gate precedes the
        // liveness check: the front end below may not touch
        // frames_.back() afterwards.
        if (config_.fastPath && !frames_.empty() && !halted_ &&
            !yield_ &&
            isTraceable(frames_.back().method->code[frames_.back().pc].op))
            runTraceFast(cpu, pollCountdown, quantumCountdown);
        if (frames_.empty() || halted_ || yield_)
            break;

        // Per-bytecode front end. A foldable bytecode always sits at
        // the head of a segment of n = min(static run length, poll
        // countdown, quantum countdown) >= 1 foldable bytecodes whose
        // folded charges are emitted up front by emitSegmentCharges
        // (DESIGN.md §5f) — the clamping means polls and quantum
        // callbacks can only come due at a segment boundary, so the
        // poll tick schedule is bit-identical to runTraceFast's. On the
        // fast path the gate above already ran everything traceable;
        // in oracle mode (fastPath off) this loop executes each segment
        // per-op with the already-paid charges suppressed
        // (segPrepaid_). Non-foldable ops keep the historical per-op
        // charge sequence: dispatch execute (plus the bytecode operand
        // fetch when interpreted) and the gated frame-spill load.
        Frame *f = &frames_.back();
        JAVELIN_ASSERT(f->pc < f->method->code.size(),
                       "pc fell off method ", f->method->name);
        const MethodRuntime *rt = f->rt;
        const TierCost *tc = &tierCosts_[static_cast<unsigned>(rt->tier)];
        if (!config_.fastPath) {
            const std::uint32_t run = f->runLen[f->pc];
            if (run != 0 && segPrepaid_ == 0) {
                const std::uint32_t n = std::min(
                    run, std::min(pollCountdown, quantumCountdown));
                double stall = 0.0;
                const std::uint32_t uops =
                    sumSegmentUops(*f, *tc, f->pc, n, &stall);
                emitSegmentCharges(cpu, *f, *tc, f->pc, n, uops, stall);
                segPrepaid_ = n;
            }
        }
        const Instruction *in = &f->method->code[f->pc];
        if (segPrepaid_ != 0) {
            --segPrepaid_;
        } else {
            if (rt->tier == Tier::Interpreted) {
                cpu.execute(tc->opExecUops[static_cast<unsigned>(in->op)],
                            kInterpreterCodeBase +
                                static_cast<Address>(in->op) * 128,
                            48);
                cpu.loadBuffered(f->method->bytecodeAddr +
                                     f->pc * sizeof(Instruction),
                                 bcFetchLine_);
            } else {
                cpu.execute(tc->opExecUops[static_cast<unsigned>(in->op)],
                            rt->codeAddr + f->pc * tc->bytesPerBc,
                            tc->bytesPerBc);
            }
            if (((++spillCounter_) & tc->spillMask) == 0)
                cpu.load(kStackBase + frames_.size() * 256 +
                         ((f->pc * 8) & 0xf8));
        }
        ++executed_;
        std::int64_t *ir = intRegs_.data() + f->intBase;
        Address *rr = refRegs_.data() + f->refBase;
        std::uint32_t next = f->pc + 1;

        switch (in->op) {
#define JAVELIN_OP(name) case Op::name: {
#define JAVELIN_OP_END \
    } \
    f->pc = next; \
    break;
#define JAVELIN_OP_END_FRAME \
    } \
    break;
#include "jvm/interpreter_ops.inc"
#undef JAVELIN_OP_END_FRAME
#undef JAVELIN_OP_END
#undef JAVELIN_OP
        }

        // Safepoint tail after every bytecode (including Call/Ret/Halt).
        if (--pollCountdown == 0) {
            pollCountdown = kPollInterval;
            system_.poll();
        }
        if (--quantumCountdown == 0) {
            quantumCountdown = kQuantumBytecodes;
            if (onQuantum)
                onQuantum();
        }
    }

    pollCountdown_ = pollCountdown;
    quantumCountdown_ = quantumCountdown;
    if (!frames_.empty() && !halted_)
        return false; // yielded at a quantum boundary
    frames_.clear();
    intTop_ = 0;
    refTop_ = 0;
    active_ = false;
    return true;
}

} // namespace jvm
} // namespace javelin
