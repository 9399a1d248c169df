/** ISA metadata, the builder, the program container and the predecoder. */

#include <gtest/gtest.h>

#include "isa/builder.h"
#include "isa/predecode.h"
#include "isa/program.h"

using namespace inc::isa;

TEST(IsaMetadata, NamesRoundTrip)
{
    for (int i = 0; i < static_cast<int>(Op::num_ops); ++i) {
        const Op op = static_cast<Op>(i);
        EXPECT_EQ(opFromName(opName(op)), op) << opName(op);
    }
    EXPECT_EQ(opFromName("definitely_not_an_op"), Op::num_ops);
}

TEST(IsaMetadata, CycleCountsArePositive)
{
    for (int i = 0; i < static_cast<int>(Op::num_ops); ++i)
        EXPECT_GE(opCycles(static_cast<Op>(i)), 1);
    EXPECT_GT(opCycles(Op::mul), opCycles(Op::add));
    EXPECT_GT(opCycles(Op::divu), opCycles(Op::mul));
    EXPECT_EQ(opCycles(Op::ld8), 2);
}

TEST(IsaMetadata, ClassesAreConsistent)
{
    EXPECT_EQ(opClass(Op::add), OpClass::alu);
    EXPECT_EQ(opClass(Op::mul), OpClass::mul);
    EXPECT_EQ(opClass(Op::ld16), OpClass::load);
    EXPECT_EQ(opClass(Op::st8), OpClass::store);
    EXPECT_EQ(opClass(Op::beq), OpClass::branch);
    EXPECT_EQ(opClass(Op::jal), OpClass::jump);
    EXPECT_EQ(opClass(Op::markrp), OpClass::incidental);
    EXPECT_TRUE(isControlFlow(Op::jmp));
    EXPECT_FALSE(isControlFlow(Op::add));
    // Constants are not data ops (no approximation noise on ldi).
    EXPECT_FALSE(isDataOp(Op::ldi));
    EXPECT_TRUE(isDataOp(Op::add));
    EXPECT_TRUE(isDataOp(Op::mov));
}

TEST(Builder, LabelsAndBranchesResolve)
{
    ProgramBuilder b;
    Label loop = b.makeLabel("loop");
    b.ldi(r1, 5);
    b.bind(loop);
    b.addi(r1, r1, -1);
    b.bne(r1, r0, loop);
    b.halt();
    const Program p = b.finish();
    ASSERT_EQ(p.size(), 4u);
    EXPECT_EQ(p.labelAddress("loop"), 1);
    EXPECT_EQ(p.at(2).imm, 1); // branch target patched
    EXPECT_EQ(p.labelAt(1), "loop");
}

TEST(Builder, ForwardReferences)
{
    ProgramBuilder b;
    Label end = b.makeLabel("end");
    b.jmp(end);
    b.nop();
    b.bind(end);
    b.halt();
    const Program p = b.finish();
    EXPECT_EQ(p.at(0).imm, 2);
}

TEST(Builder, PseudoOps)
{
    ProgramBuilder b;
    b.neg(r1, r2);
    b.abs_(r3, r4, r5);
    const Program p = b.finish();
    EXPECT_EQ(p.at(0).op, Op::sub);
    EXPECT_EQ(p.at(0).rs1, r0);
    EXPECT_EQ(p.at(1).op, Op::sub); // neg part of abs
    EXPECT_EQ(p.at(2).op, Op::max);
}

TEST(Program, OutOfRangeFetchesHalt)
{
    ProgramBuilder b;
    b.nop();
    const Program p = b.finish();
    EXPECT_EQ(p.at(100).op, Op::halt);
}

TEST(Program, CountOp)
{
    ProgramBuilder b;
    b.nop();
    b.nop();
    b.halt();
    const Program p = b.finish();
    EXPECT_EQ(p.countOp(Op::nop), 2u);
    EXPECT_EQ(p.countOp(Op::halt), 1u);
    EXPECT_EQ(p.countOp(Op::add), 0u);
}

// ---- predecoder (DESIGN.md §11) -------------------------------------------

TEST(Predecode, MetadataMatchesIsaTablesForEveryOp)
{
    // The fast-path engine reads the precomputed metadata instead of the
    // ISA tables, so the two must agree on every opcode.
    for (int i = 0; i < static_cast<int>(Op::num_ops); ++i) {
        const Op op = static_cast<Op>(i);
        const DecodedInst d = predecode({op, 1, 2, 3, 0xBEEF});
        EXPECT_EQ(d.op, op) << opName(op);
        EXPECT_EQ(d.cls, opClass(op)) << opName(op);
        EXPECT_EQ(d.cycles, opCycles(op)) << opName(op);
        EXPECT_EQ(d.b_is_imm, !readsRs2(op)) << opName(op);
        EXPECT_EQ(d.noise_candidate, isDataOp(op)) << opName(op);
        EXPECT_EQ(d.rd, 1);
        EXPECT_EQ(d.rs1, 2);
        EXPECT_EQ(d.rs2, 3);
        EXPECT_EQ(d.imm, 0xBEEF);
    }
}

TEST(Predecode, OutOfRangeFetchesHaltLikeProgram)
{
    ProgramBuilder b;
    b.nop();
    const Program p = b.finish();
    const PredecodedProgram d(p);
    EXPECT_EQ(d.at(0).op, Op::nop);
    EXPECT_EQ(d.at(100).op, Op::halt);
    EXPECT_EQ(p.at(100).op, Op::halt);
}
