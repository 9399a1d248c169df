#include "isa/predecode.h"

#include "util/logging.h"

namespace inc::isa
{

DecodedInst
predecode(const Instruction &inst)
{
    // The fast-path interpreter indexes the register file without bounds
    // checks, so reject out-of-range operands here. The reference engine
    // panics on the same instruction at execution time.
    if (inst.rd >= kNumRegs || inst.rs1 >= kNumRegs ||
        inst.rs2 >= kNumRegs)
        util::panic("predecode: register operand out of range in '%s'",
                    opName(inst.op).c_str());
    DecodedInst d;
    d.op = inst.op;
    d.cls = opClass(inst.op);
    d.rd = inst.rd;
    d.rs1 = inst.rs1;
    d.rs2 = inst.rs2;
    d.imm = inst.imm;
    d.cycles = static_cast<std::uint8_t>(opCycles(inst.op));
    d.b_is_imm = !readsRs2(inst.op);
    d.noise_candidate = isDataOp(inst.op);
    return d;
}

PredecodedProgram::PredecodedProgram(const Program &program)
{
    code_.reserve(program.size());
    for (const Instruction &inst : program.code())
        code_.push_back(predecode(inst));
}

const DecodedInst &
PredecodedProgram::haltSentinel()
{
    static const DecodedInst halt = predecode({Op::halt, 0, 0, 0, 0});
    return halt;
}

} // namespace inc::isa
