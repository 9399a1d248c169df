/**
 * @file
 * Predecoded program form for the fast-path interpreter.
 *
 * nvp::Core's reference engine re-derives instruction metadata on every
 * step: Program::at() is an out-of-line call, and opClass()/opCycles()/
 * readsRs2()/isDataOp() each walk the ISA info table again. That cost is
 * pure overhead — the metadata of a given instruction never changes —
 * and it bounds how many fuzz trials and sweep points the substrate can
 * afford (ROADMAP: "as fast as the hardware allows").
 *
 * A PredecodedProgram resolves each instruction ONCE at load time into a
 * dense DecodedInst: operand fields, execution class, cycle cost, the
 * operand-b source (register vs immediate) and ALU-noise candidacy are
 * all precomputed, so the predecoded engine's dispatch loop touches a
 * single cache-friendly array and never calls back into the metadata
 * tables. tests/test_isa.cc checks the precomputed metadata against
 * those tables for every opcode.
 */

#ifndef INC_ISA_PREDECODE_H
#define INC_ISA_PREDECODE_H

#include <cstdint>
#include <vector>

#include "isa/isa.h"
#include "isa/program.h"

namespace inc::isa
{

/**
 * One instruction with every per-step metadata query precomputed.
 * 8 bytes; a whole kernel fits in a few cache lines.
 */
struct DecodedInst
{
    Op op = Op::nop;
    OpClass cls = OpClass::system; ///< opClass(op)
    std::uint8_t rd = 0;
    std::uint8_t rs1 = 0;
    std::uint8_t rs2 = 0;
    std::uint8_t cycles = 1;       ///< opCycles(op)
    std::uint16_t imm = 0;

    /** Data ops only: operand b comes from imm (I-type), not rs2. */
    bool b_is_imm = false;
    /** isDataOp(op): result subject to ALU noise when rd carries AC. */
    bool noise_candidate = false;

    bool operator==(const DecodedInst &other) const = default;
};

/** Resolve one instruction. */
DecodedInst predecode(const Instruction &inst);

/** A program resolved into the dense fast-path form. */
class PredecodedProgram
{
  public:
    PredecodedProgram() = default;
    explicit PredecodedProgram(const Program &program);

    std::size_t size() const { return code_.size(); }
    bool empty() const { return code_.empty(); }

    /** Instruction at @p pc; out-of-range PCs fetch a halt, exactly
     *  like Program::at(). Inline: this is the fast path's fetch. */
    const DecodedInst &at(std::uint16_t pc) const
    {
        if (pc >= code_.size())
            return haltSentinel();
        return code_[pc];
    }

    const std::vector<DecodedInst> &code() const { return code_; }

  private:
    static const DecodedInst &haltSentinel();

    std::vector<DecodedInst> code_;
};

} // namespace inc::isa

#endif // INC_ISA_PREDECODE_H
