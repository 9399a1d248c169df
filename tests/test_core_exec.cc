/** Core executor: single-lane semantics, SIMD lanes, incidental ops. */

#include <array>
#include <bit>
#include <string>

#include <gtest/gtest.h>

#include "isa/assembler.h"
#include "nvp/core.h"

using namespace inc;
using namespace inc::nvp;

namespace
{

struct Fixture
{
    isa::Program program;
    DataMemory mem{util::Rng(1), 8192};
    std::unique_ptr<Core> core;

    explicit Fixture(const std::string &asm_text,
                     CoreConfig cfg = CoreConfig{})
        : program(isa::assembleOrDie(asm_text))
    {
        core = std::make_unique<Core>(&program, &mem, cfg, util::Rng(2));
    }

    /** Step until halt (bounded). */
    std::uint64_t runToHalt(std::uint64_t cap = 100000)
    {
        std::uint64_t steps = 0;
        while (!core->halted() && steps < cap) {
            core->step();
            ++steps;
        }
        return steps;
    }
};

} // namespace

TEST(CoreExec, StraightLineArithmetic)
{
    Fixture f(R"(
        ldi r1, 7
        ldi r2, 5
        add r3, r1, r2
        sub r4, r1, r2
        mul r5, r1, r2
        halt
    )");
    f.runToHalt();
    EXPECT_EQ(f.core->regs().read(0, 3), 12);
    EXPECT_EQ(f.core->regs().read(0, 4), 2);
    EXPECT_EQ(f.core->regs().read(0, 5), 35);
}

TEST(CoreExec, LoopsAndBranches)
{
    Fixture f(R"(
        ldi r1, 10
        ldi r2, 0
    loop:
        add r2, r2, r1
        addi r1, r1, -1
        bne r1, r0, loop
        halt
    )");
    f.runToHalt();
    EXPECT_EQ(f.core->regs().read(0, 2), 55);
}

TEST(CoreExec, MemoryAndJal)
{
    Fixture f(R"(
        ldi r1, 100
        ldi r2, 0x1234
        st16 r2, 0(r1)
        ld16 r3, 0(r1)
        ld8 r4, 0(r1)
        ld8 r5, 1(r1)
        jal r6, over
        nop
    over:
        halt
    )");
    f.runToHalt();
    EXPECT_EQ(f.core->regs().read(0, 3), 0x1234);
    EXPECT_EQ(f.core->regs().read(0, 4), 0x34); // little endian
    EXPECT_EQ(f.core->regs().read(0, 5), 0x12);
    EXPECT_EQ(f.core->regs().read(0, 6), 7); // return address
}

TEST(CoreExec, SignExtendingLoad)
{
    Fixture f(R"(
        ldi r1, 200
        ldi r2, 0xFF
        st8 r2, 0(r1)
        ld8s r3, 0(r1)
        ld8 r4, 0(r1)
        halt
    )");
    f.runToHalt();
    EXPECT_EQ(f.core->regs().read(0, 3), 0xFFFF);
    EXPECT_EQ(f.core->regs().read(0, 4), 0x00FF);
}

TEST(CoreExec, TakenBranchCostsExtraCycle)
{
    Fixture f(R"(
        beq r0, r0, target
        nop
    target:
        halt
    )");
    const auto s = f.core->step();
    EXPECT_EQ(s.cycles, isa::opCycles(isa::Op::beq) + 1);
    EXPECT_EQ(f.core->pc(), 2);
}

TEST(CoreExec, MarkResumeRecordsArchitecturalState)
{
    Fixture f(R"(
        ldi r15, 3
        markrp r15, 0x0806
        halt
    )");
    f.core->step();
    EXPECT_FALSE(f.core->hasResumePoint());
    const auto s = f.core->step();
    EXPECT_TRUE(s.mark_resume);
    EXPECT_EQ(s.resume_frame_value, 3);
    EXPECT_TRUE(f.core->hasResumePoint());
    EXPECT_EQ(f.core->resumePc(), 1);
    EXPECT_EQ(f.core->frameReg(), 15);
    EXPECT_EQ(f.core->matchMask(), 0x0806);
}

TEST(CoreExec, AcSetClrAndEnable)
{
    Fixture f(R"(
        acset 0x0006
        acclr 0x0002
        acen 1
        halt
    )");
    f.core->step();
    EXPECT_EQ(f.core->regs().acMask(), 0x0006);
    f.core->step();
    EXPECT_EQ(f.core->regs().acMask(), 0x0004);
    EXPECT_FALSE(f.core->acEnabled());
    f.core->step();
    EXPECT_TRUE(f.core->acEnabled());
}

TEST(CoreExec, LanesExecuteInLockstep)
{
    Fixture f(R"(
        ldi r1, 1
        add r2, r2, r1
        add r2, r2, r1
        halt
    )");
    // Activate lane 1 with r1 = 10 before execution.
    RegSnapshot regs{};
    regs[1] = 10;
    f.core->activateLane(1, regs, 8, 42);
    EXPECT_EQ(f.core->activeLaneCount(), 2);

    const auto s0 = f.core->step(); // ldi affects both lanes
    EXPECT_EQ(s0.lanes_committed, 2);
    f.core->step();
    f.core->step();
    // Lane 0: r1=1 -> r2=2. Lane 1: ldi also set its r1=1... both lanes
    // execute the same instruction stream on their own registers.
    EXPECT_EQ(f.core->regs().read(0, 2), 2);
    EXPECT_EQ(f.core->regs().read(1, 2), 2);
    EXPECT_EQ(f.core->lane(1).frame, 42);
    EXPECT_EQ(f.core->totalInstret(), 6u); // 3 steps x 2 lanes
}

TEST(CoreExec, LaneStoresArbitrateInVersionedRegions)
{
    Fixture f(R"(
        ldi r1, 4096
        ldi r2, 77
        st8 r2, 0(r1)
        halt
    )");
    f.mem.addVersionedRegion(4096, 64);
    RegSnapshot regs{};
    f.core->activateLane(1, regs, 3, 1); // low-precision lane
    f.runToHalt();
    // Both lanes stored 77 at 4096 (lane regs identical after ldi); the
    // main version keeps lane 0's full-precision tag.
    EXPECT_EQ(f.mem.hostRead8(4096), 77);
    EXPECT_EQ(f.mem.precisionAt(4096), 8);
}

TEST(CoreExec, DeactivateLaneClearsItsVersions)
{
    Fixture f("halt\n");
    f.mem.addVersionedRegion(4096, 16);
    RegSnapshot regs{};
    f.core->activateLane(2, regs, 4, 9);
    f.mem.store8(2, 4096, 5, 4, false);
    f.core->deactivateLane(2);
    EXPECT_EQ(f.mem.load8(2, 4096, 8, false), f.mem.hostRead8(4096));
    EXPECT_EQ(f.core->activeLaneCount(), 1);
}

TEST(CoreExec, IncidentalBitsSum)
{
    Fixture f("halt\n");
    RegSnapshot regs{};
    f.core->activateLane(1, regs, 3, 0);
    f.core->activateLane(2, regs, 5, 1);
    EXPECT_EQ(f.core->incidentalBitsSum(), 8);
    f.core->setLaneBits(1, 7);
    EXPECT_EQ(f.core->incidentalBitsSum(), 12);
}

TEST(CoreExec, AssembleInstructionDrivesMergeFsm)
{
    Fixture f(R"(
        ldi r1, 4096
        ldi r2, 2
        assem r1, r2, higherbits
        halt
    )");
    f.mem.addVersionedRegion(4096, 16);
    f.mem.store8(1, 4096, 9, 6, false);
    f.mem.store8(0, 4096, 3, 2, false);
    std::uint32_t merged = 0;
    while (!f.core->halted()) {
        const auto s = f.core->step();
        merged += s.assemble_bytes;
    }
    EXPECT_EQ(merged, 2u);
    EXPECT_EQ(f.mem.hostRead8(4096), 9); // version 1 had higher precision
}

TEST(CoreExec, HaltedCoreStaysHalted)
{
    Fixture f("halt\n");
    f.runToHalt();
    const auto s = f.core->step();
    EXPECT_TRUE(s.halted);
    EXPECT_EQ(s.lanes_committed, 0);
}

TEST(CoreExec, NoiseRespectsAcGating)
{
    // With AC enabled, 2 bits, and r1 AC-flagged, repeated adds of zero
    // should produce noisy low bits; r2 (not flagged) stays exact.
    Fixture f(R"(
        acen 1
        acset 0x0002
        ldi r1, 0x80
        ldi r2, 0x80
    loop:
        add r1, r1, r0
        add r2, r2, r0
        beq r0, r0, loop
    )");
    f.core->setMainBits(2);
    for (int i = 0; i < 4; ++i)
        f.core->step(); // prologue: acen, acset, two ldi
    bool r1_noisy = false;
    for (int i = 0; i < 400 && !f.core->halted(); ++i) {
        f.core->step();
        if (f.core->regs().read(0, 1) != 0x80)
            r1_noisy = true;
        ASSERT_EQ(f.core->regs().read(0, 2), 0x80);
    }
    EXPECT_TRUE(r1_noisy);
}

namespace
{

/**
 * The program EveryLaneMaskStepsLikeTheReference steps: every
 * data-op shape (R-type, I-type, ldi/mov, divide and shift by lane
 * values that can be 0 or >= 16), all three loads and both stores at
 * per-lane addresses that straddle plain, versioned write-through,
 * versioned lane-private and AC bytes, with acen and the AC mask
 * switched on and off between passes. Branches and the loop counter
 * (r9) are lane 0's, as in every kernel.
 */
constexpr char kLaneMixProgram[] = R"(
        ldi r9, 5
    loop:
        acen 1
        acset 0x00F6
        add r1, r1, r10
        mul r2, r1, r11
        xori r4, r2, 0x5A5A
        srai r5, r4, 3
        sub r6, r5, r1
        divu r7, r6, r12
        remu r8, r6, r12
        min r3, r7, r8
        maxu r3, r3, r2
        sll r13, r1, r12
        sra r14, r2, r11
        slt r15, r13, r14
        sltiu r15, r15, 1
        andi r13, r1, 255
        addi r13, r13, 4064
        st8 r4, 0(r13)
        st16 r2, 2(r13)
        ld8 r5, 1(r13)
        ld8s r6, 0(r13)
        ld16 r7, 2(r13)
        or r10, r10, r5
        acen 0
        addi r11, r11, 7
        srl r12, r6, r1
        and r3, r7, r6
        mov r4, r3
        st16 r4, 4(r13)
        ld16 r8, 4(r13)
        acclr 0x0030
        acen 1
        minu r5, r8, r7
        max r6, r5, r2
        slli r7, r6, 2
        srli r8, r7, 1
        ori r2, r8, 0x0101
        slti r4, r2, 100
        st8 r2, 5(r13)
        ld8 r4, 5(r13)
        ldi r6, 0x7F
        addi r9, r9, -1
        bne r9, r0, loop
        jal r14, done
        nop
    done:
        halt
)";

/** One core over its own memory: the AC and versioned layout the
 *  program's addresses (4064..4324) straddle, and preset bytes. */
struct LaneMixCore
{
    isa::Program program;
    DataMemory mem{util::Rng(1), 8192};
    std::unique_ptr<Core> core;

    explicit LaneMixCore(ExecEngine engine)
        : program(isa::assembleOrDie(kLaneMixProgram))
    {
        mem.addVersionedRegion(4096, 64, true);
        mem.addVersionedRegion(4160, 64, false);
        mem.addAcRegion({4128, 128, nvm::RetentionPolicy::linear});
        for (std::uint32_t a = 4064; a < 4352; ++a)
            mem.hostWrite8(a, static_cast<std::uint8_t>(a * 37 + 11));
        CoreConfig cfg;
        cfg.engine = engine;
        core = std::make_unique<Core>(&program, &mem, cfg, util::Rng(2));
    }
};

/** A distinct register file per lane (r0 is dropped by load()). */
RegSnapshot
laneRegs(int lane)
{
    RegSnapshot regs{};
    for (int r = 0; r < isa::kNumRegs; ++r)
        regs[static_cast<size_t>(r)] =
            static_cast<std::uint16_t>(lane * 0x1357 + r * 0x0F1D + 3);
    regs[12] = static_cast<std::uint16_t>(lane == 2 ? 0 : 17 + lane);
    return regs;
}

/** Everything one step can change, compared between the engines. */
void
expectSameState(LaneMixCore &ref, LaneMixCore &fast)
{
    ASSERT_EQ(ref.core->pc(), fast.core->pc());
    ASSERT_EQ(ref.core->halted(), fast.core->halted());
    for (int v = 0; v < kMaxLanes; ++v) {
        ASSERT_EQ(ref.core->lane(v).instret, fast.core->lane(v).instret)
            << "lane " << v;
        for (int r = 0; r < isa::kNumRegs; ++r)
            ASSERT_EQ(ref.core->regs().read(v, r),
                      fast.core->regs().read(v, r))
                << "version " << v << " r" << r;
    }
    for (std::uint32_t a = 4064; a < 4352; ++a) {
        ASSERT_EQ(ref.mem.hostRead8(a), fast.mem.hostRead8(a)) << a;
        ASSERT_EQ(ref.mem.precisionAt(a), fast.mem.precisionAt(a)) << a;
        for (int v = 1; v < kMaxLanes; ++v)
            ASSERT_EQ(ref.mem.load8(v, a, 8, false),
                      fast.mem.load8(v, a, 8, false))
                << "lane " << v << " byte " << a;
    }
    util::Rng ref_rng = ref.core->alu().rng();
    util::Rng fast_rng = fast.core->alu().rng();
    ASSERT_EQ(ref_rng.next(), fast_rng.next()) << "ALU noise stream";
}

} // namespace

TEST(CoreExec, EveryLaneMaskStepsLikeTheReference)
{
    // Per-lane bits (lane 0 first): every value 1..8 appears, and each
    // lane sees both noisy (< 8) and exact widths across the rounds.
    constexpr std::array<std::array<int, kMaxLanes>, 3> kBits = {{
        {8, 1, 4, 7},
        {3, 8, 2, 5},
        {6, 2, 8, 1},
    }};
    for (unsigned mask = 1; mask < 8; ++mask) {
        for (const auto &bits : kBits) {
            SCOPED_TRACE("lanes " + std::to_string(mask << 1 | 1) +
                         " bits " + std::to_string(bits[0]) +
                         std::to_string(bits[1]) +
                         std::to_string(bits[2]) +
                         std::to_string(bits[3]));
            LaneMixCore ref(ExecEngine::reference);
            LaneMixCore fast(ExecEngine::predecoded);
            for (LaneMixCore *c : {&ref, &fast}) {
                // Inactive versions hold junk the step must not touch.
                for (int v = 0; v < kMaxLanes; ++v)
                    c->core->regs().load(v, laneRegs(v + 4));
                c->core->regs().load(0, laneRegs(0));
                c->core->setMainBits(bits[0]);
                for (int lane = 1; lane < kMaxLanes; ++lane) {
                    if ((mask >> (lane - 1)) & 1)
                        c->core->activateLane(
                            lane, laneRegs(lane), bits[lane],
                            static_cast<std::uint16_t>(lane));
                }
            }
            ASSERT_EQ(ref.core->activeLaneCount(),
                      1 + std::popcount(mask));
            ASSERT_NO_FATAL_FAILURE(expectSameState(ref, fast));
            int steps = 0;
            while (!ref.core->halted()) {
                ASSERT_LT(steps++, 1000);
                const StepResult a = ref.core->step();
                const StepResult b = fast.core->step();
                ASSERT_EQ(a.op, b.op);
                ASSERT_EQ(a.cycles, b.cycles);
                ASSERT_EQ(a.lanes_committed, b.lanes_committed);
                ASSERT_EQ(a.store_policy, b.store_policy);
                ASSERT_NO_FATAL_FAILURE(expectSameState(ref, fast));
            }
        }
    }
}
