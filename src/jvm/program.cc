#include "jvm/program.hh"

#include <algorithm>
#include <sstream>

#include "jvm/op_costs.hh"
#include "util/logging.hh"

namespace javelin {
namespace jvm {

namespace {

/**
 * Build one method's superinstruction tables (DESIGN.md §5g): the
 * per-pc maximal foldable-run lengths (backward scan) and the prefix
 * sums the segment front end charges from — per-tier semantic
 * micro-ops and FP stall half-cycles. Done once per program instead of
 * once per Interpreter construction, so short runs (benchmark suites,
 * sweeps) stop paying an O(code) rebuild per VM instance.
 */
void
buildFoldTables(MethodInfo &m)
{
    const std::size_t len = m.code.size();
    m.runLen.assign(len, 0);
    std::uint32_t run = 0;
    for (std::size_t i = len; i-- > 0;) {
        if (op_costs::isFoldable(m.code[i].op)) {
            run = std::min<std::uint32_t>(run + 1, 0xFFFF);
            m.runLen[i] = static_cast<std::uint16_t>(run);
        } else {
            run = 0;
        }
    }

    m.fpStallHalfPrefix.assign(len + 1, 0);
    for (std::size_t i = 0; i < len; ++i)
        m.fpStallHalfPrefix[i + 1] =
            m.fpStallHalfPrefix[i] +
            op_costs::fpStallHalfCycles(m.code[i].op);

    for (unsigned t = 0; t < 4; ++t) {
        auto &pref = m.semUopPrefix[t];
        pref.assign(len + 1, 0);
        for (std::size_t i = 0; i < len; ++i)
            pref[i + 1] =
                pref[i] +
                op_costs::tierSemUops(
                    static_cast<Tier>(t),
                    op_costs::kBaseUops[static_cast<unsigned>(
                        m.code[i].op)]);
    }
}

} // namespace

void
Program::layout()
{
    Address metadata = kMetadataBase;
    for (auto &cls : classes) {
        cls.metadataAddr = metadata;
        metadata += alignUp(cls.metadataBytes);
    }
    for (auto &m : methods) {
        m.bytecodeAddr = metadata;
        metadata += alignUp(static_cast<std::uint32_t>(
            m.code.size() * sizeof(Instruction)));
        buildFoldTables(m);
    }
    JAVELIN_ASSERT(metadata < kStaticsBase,
                   "metadata region overflow: program too large");
}

namespace {

class Verifier
{
  public:
    Verifier(const Program &program) : program_(program) {}

    std::vector<std::string>
    run()
    {
        if (program_.classes.empty())
            fail(0, 0, "program has no classes");
        if (program_.methods.empty())
            fail(0, 0, "program has no methods");
        for (std::size_t i = 0; i < program_.classes.size(); ++i)
            checkClass(static_cast<ClassId>(i));
        for (std::size_t i = 0; i < program_.methods.size(); ++i)
            checkMethod(static_cast<MethodId>(i));
        if (program_.entry >= program_.methods.size())
            fail(0, 0, "entry method out of range");
        return std::move(errors_);
    }

  private:
    void
    fail(MethodId m, std::size_t pc, const std::string &what)
    {
        std::ostringstream os;
        os << "method " << m << " pc " << pc << ": " << what;
        errors_.push_back(os.str());
    }

    void
    checkClass(ClassId id)
    {
        const ClassInfo &cls = program_.classes[id];
        if (cls.id != id)
            fail(0, 0, "class table id mismatch at " + std::to_string(id));
        if (cls.isRefArray && cls.isScalarArray)
            fail(0, 0, "class " + cls.name + " is both array kinds");
        if (cls.isArray() && (cls.refFields || cls.scalarFields))
            fail(0, 0, "array class " + cls.name + " has fields");
        if (cls.super != kNoClass && cls.super >= program_.classes.size())
            fail(0, 0, "class " + cls.name + " has bad super");
        for (ClassId ref : cls.referencedClasses)
            if (ref >= program_.classes.size())
                fail(0, 0, "class " + cls.name + " references bad class");
    }

    bool
    classOk(ClassId id) const
    {
        return id < program_.classes.size();
    }

    void
    checkMethod(MethodId id)
    {
        const MethodInfo &m = program_.methods[id];
        if (m.id != id)
            fail(id, 0, "method table id mismatch");
        if (m.code.empty()) {
            fail(id, 0, "empty method body");
            return;
        }
        if (m.nIntArgs > m.nIntRegs || m.nRefArgs > m.nRefRegs)
            fail(id, 0, "argument count exceeds register file");

        const auto codeLen = static_cast<std::int32_t>(m.code.size());
        auto intReg = [&](std::int32_t r) { return r >= 0 && r < m.nIntRegs; };
        auto refReg = [&](std::int32_t r) { return r >= 0 && r < m.nRefRegs; };
        auto target = [&](std::int32_t t) { return t >= 0 && t < codeLen; };

        bool sawTerminator = false;
        for (std::size_t pc = 0; pc < m.code.size(); ++pc) {
            const Instruction &in = m.code[pc];
            switch (in.op) {
              case Op::Nop:
                break;
              case Op::IConst:
                if (!intReg(in.a))
                    fail(id, pc, "iconst bad reg");
                break;
              case Op::Move:
                if (!intReg(in.a) || !intReg(in.b))
                    fail(id, pc, "move bad reg");
                break;
              case Op::IAdd:
              case Op::ISub:
              case Op::IMul:
              case Op::IDiv:
              case Op::IRem:
              case Op::IXor:
              case Op::FAdd:
              case Op::FMul:
                if (!intReg(in.a) || !intReg(in.b) || !intReg(in.c))
                    fail(id, pc, "alu bad reg");
                break;
              case Op::Rand:
                if (!intReg(in.a) || !intReg(in.b))
                    fail(id, pc, "rand bad reg");
                break;
              case Op::Goto:
                if (!target(in.a))
                    fail(id, pc, "goto bad target");
                break;
              case Op::IfLt:
              case Op::IfGe:
              case Op::IfEq:
              case Op::IfNe:
                if (!intReg(in.a) || !intReg(in.b) || !target(in.c))
                    fail(id, pc, "if bad operands");
                break;
              case Op::IfNull:
              case Op::IfNotNull:
                if (!refReg(in.a) || !target(in.b))
                    fail(id, pc, "ifnull bad operands");
                break;
              case Op::Call: {
                if (!intReg(in.a)) {
                    fail(id, pc, "call bad dst");
                    break;
                }
                if (in.b < 0 ||
                    in.b >= static_cast<std::int32_t>(
                        program_.methods.size())) {
                    fail(id, pc, "call bad method");
                    break;
                }
                const MethodInfo &callee =
                    program_.methods[static_cast<MethodId>(in.b)];
                if (callee.nIntArgs &&
                    (in.c < 0 || in.c + callee.nIntArgs > m.nIntRegs))
                    fail(id, pc, "call int-arg window out of range");
                if (callee.nRefArgs &&
                    (in.d < 0 || in.d + callee.nRefArgs > m.nRefRegs))
                    fail(id, pc, "call ref-arg window out of range");
                break;
              }
              case Op::Ret:
                if (!intReg(in.a))
                    fail(id, pc, "ret bad reg");
                sawTerminator = true;
                break;
              case Op::New:
                if (!refReg(in.a) || !classOk(static_cast<ClassId>(in.b)))
                    fail(id, pc, "new bad operands");
                else if (program_.classes[static_cast<ClassId>(in.b)]
                             .isArray())
                    fail(id, pc, "new of array class");
                break;
              case Op::NewArray:
                if (!refReg(in.a) || !classOk(static_cast<ClassId>(in.b)) ||
                    !intReg(in.c))
                    fail(id, pc, "newarray bad operands");
                else if (!program_.classes[static_cast<ClassId>(in.b)]
                              .isArray())
                    fail(id, pc, "newarray of non-array class");
                break;
              case Op::GetField:
                if (!intReg(in.a) || !refReg(in.b))
                    fail(id, pc, "getfield bad regs");
                break;
              case Op::PutField:
                if (!refReg(in.a) || !intReg(in.c))
                    fail(id, pc, "putfield bad regs");
                break;
              case Op::GetRef:
                if (!refReg(in.a) || !refReg(in.b))
                    fail(id, pc, "getref bad regs");
                break;
              case Op::PutRef:
                if (!refReg(in.a) || !refReg(in.c))
                    fail(id, pc, "putref bad regs");
                break;
              case Op::GetElem:
                if (!intReg(in.a) || !refReg(in.b) || !intReg(in.c))
                    fail(id, pc, "getelem bad regs");
                break;
              case Op::PutElem:
                if (!refReg(in.a) || !intReg(in.b) || !intReg(in.c))
                    fail(id, pc, "putelem bad regs");
                break;
              case Op::GetRefElem:
                if (!refReg(in.a) || !refReg(in.b) || !intReg(in.c))
                    fail(id, pc, "getrefelem bad regs");
                break;
              case Op::PutRefElem:
                if (!refReg(in.a) || !intReg(in.b) || !refReg(in.c))
                    fail(id, pc, "putrefelem bad regs");
                break;
              case Op::ArrayLen:
                if (!intReg(in.a) || !refReg(in.b))
                    fail(id, pc, "arraylen bad regs");
                break;
              case Op::GetStatic:
                if (!refReg(in.a) || in.b < 0 ||
                    in.b >= static_cast<std::int32_t>(program_.numStatics))
                    fail(id, pc, "getstatic bad operands");
                break;
              case Op::PutStatic:
                if (in.a < 0 ||
                    in.a >= static_cast<std::int32_t>(program_.numStatics) ||
                    !refReg(in.b))
                    fail(id, pc, "putstatic bad operands");
                break;
              case Op::NativeWork:
                if (in.a < 0 || in.b < 0)
                    fail(id, pc, "nativework negative cost");
                break;
              case Op::Halt:
                sawTerminator = true;
                break;
              case Op::NumOps:
                fail(id, pc, "invalid opcode");
                break;
            }
        }
        if (!sawTerminator)
            fail(id, m.code.size() - 1, "method lacks ret/halt");
    }

    const Program &program_;
    std::vector<std::string> errors_;
};

} // namespace

std::vector<std::string>
Program::verify() const
{
    return Verifier(*this).run();
}

} // namespace jvm
} // namespace javelin
