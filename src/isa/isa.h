/**
 * @file
 * Instruction set of the NVP functional model.
 *
 * The paper's platform is a modified 8051 RTL. We model an equivalent-
 * complexity 8-bit-datapath MCU with a cleaner load/store ISA so that the
 * ten kernels can be written by hand (directly or through ProgramBuilder)
 * and so that incidental-computing state (resume points, AC flags,
 * merges) is architecturally visible, mirroring the paper's Sec. 4
 * microarchitecture support:
 *
 *  - 16 general registers r0..r15, 16 bits each; r0 is hardwired to zero.
 *    Registers are wide enough for addresses; *data* values are 8-bit
 *    significant and subject to bitwidth approximation when their
 *    register carries the AC flag.
 *  - Harvard organization: word-addressed instruction memory (PC indexes
 *    instructions), byte-addressed 64 KiB data memory, no cache.
 *  - Multi-cycle execution in a simple 5-stage pipeline; per-op cycle
 *    counts below follow 8051-class costs (MUL/DIV are slow).
 *  - Incidental-computing ops: MARKRP (records a resume point with the
 *    frame register and a compiler-generated register-match mask), ACSET/
 *    ACCLR (per-register AC flags), ACEN (global approximation enable),
 *    ASSEM (controller-driven versioned-memory merge).
 */

#ifndef INC_ISA_ISA_H
#define INC_ISA_ISA_H

#include <compare>
#include <cstdint>
#include <string>

namespace inc::isa
{

/** Number of general-purpose registers. */
constexpr int kNumRegs = 16;

/** Data memory size in bytes. */
constexpr std::size_t kDataMemBytes = 65536;

/** Opcodes. */
enum class Op : std::uint8_t
{
    // System
    nop,
    halt,

    // Immediate / moves
    ldi,    ///< rd = imm16
    mov,    ///< rd = rs1

    // Arithmetic / logic (R-type: rd = rs1 op rs2)
    add,
    sub,
    mul,    ///< low 16 bits of product
    divu,   ///< unsigned divide (rs2 == 0 -> 0xffff)
    remu,   ///< unsigned remainder (rs2 == 0 -> rs1)
    and_,
    or_,
    xor_,
    sll,    ///< shift left by rs2 & 15
    srl,    ///< logical shift right by rs2 & 15
    sra,    ///< arithmetic shift right by rs2 & 15
    slt,    ///< rd = (signed) rs1 < rs2
    sltu,   ///< rd = (unsigned) rs1 < rs2
    min,    ///< signed minimum (branchless data ops for SIMD safety)
    max,    ///< signed maximum
    minu,   ///< unsigned minimum
    maxu,   ///< unsigned maximum

    // Immediate arithmetic/logic (rd = rs1 op imm16)
    addi,
    andi,
    ori,
    xori,
    slli,
    srli,
    srai,
    slti,
    sltiu,

    // Memory (address = rs1 + signed imm)
    ld8,    ///< zero-extended byte load
    ld8s,   ///< sign-extended byte load
    ld16,   ///< little-endian halfword load
    st8,
    st16,

    // Control flow (targets are absolute instruction indices)
    beq,
    bne,
    blt,
    bge,
    bltu,
    bgeu,
    jmp,
    jal,    ///< rd = return PC; jump to target
    jr,     ///< PC = rs1

    // Incidental computing support (paper Sec. 4-5)
    markrp, ///< record resume point: frame reg = rs1, match mask = imm16
    acset,  ///< set AC flag on registers in imm16 mask
    acclr,  ///< clear AC flag on registers in imm16 mask
    acen,   ///< global approximation enable = imm16 != 0
    assem,  ///< merge versioned memory [rs1, rs1+rs2) with mode imm16

    num_ops
};

/** Assemble-instruction merge modes (paper Table 1 "assemble_mode"). */
enum class AssembleMode : std::uint16_t
{
    higherbits = 0, ///< keep the value with the higher precision metadata
    sum = 1,
    max = 2,
    min = 3
};

/** Broad execution class of an op, used by cost and energy models. */
enum class OpClass
{
    system,
    alu,       ///< 1-cycle integer ops
    mul,       ///< multiplier
    div,       ///< divider
    load,
    store,
    branch,
    jump,
    incidental ///< markrp / acset / acclr / acen / assem
};

/** A decoded instruction. */
struct Instruction
{
    Op op = Op::nop;
    std::uint8_t rd = 0;
    std::uint8_t rs1 = 0;
    std::uint8_t rs2 = 0;
    std::uint16_t imm = 0;

    auto operator<=>(const Instruction &other) const = default;
};

/** Mnemonic for @p op ("add", "ld8", ...). */
const std::string &opName(Op op);

/** Parse a mnemonic; returns Op::num_ops if unknown. */
Op opFromName(const std::string &name);

/** Execution class of @p op. */
OpClass opClass(Op op);

/** Base cycle count of @p op (taken-branch extra handled by the core). */
int opCycles(Op op);

/** True for ops whose result is data (candidates for approximation). */
bool isDataOp(Op op);

/** True if @p op writes register rd. */
bool writesRd(Op op);

/** True if @p op reads rs1 / rs2. */
bool readsRs1(Op op);
bool readsRs2(Op op);

/** True for branch/jump ops (PC not simply incremented). */
bool isControlFlow(Op op);

} // namespace inc::isa

#endif // INC_ISA_ISA_H
