/**
 * Guard-rail coverage: the library's panic()/fatal() checks must
 * actually fire on misuse (death tests), and error-returning paths must
 * degrade gracefully rather than trap.
 */

#include <gtest/gtest.h>

#include "energy/capacitor.h"
#include "isa/builder.h"
#include "nvp/core.h"
#include "nvp/memory.h"
#include "nvp/register_file.h"
#include "trace/power_trace.h"
#include "util/image.h"
#include "util/rng.h"

using namespace inc;

TEST(GuardsDeath, RngRejectsZeroBound)
{
    util::Rng rng(1);
    EXPECT_DEATH(rng.nextBounded(0), "bound 0");
}

TEST(GuardsDeath, RngRejectsInvertedRange)
{
    util::Rng rng(1);
    EXPECT_DEATH(rng.nextRange(5, 4), "lo > hi");
}

TEST(GuardsDeath, RegisterFileRejectsBadVersion)
{
    nvp::RegisterFile rf;
    EXPECT_DEATH(rf.read(4, 1), "version");
    EXPECT_DEATH(rf.read(0, 16), "register index");
}

TEST(GuardsDeath, MemoryRejectsOutOfRange)
{
    nvp::DataMemory mem(util::Rng(1), 256);
    EXPECT_DEATH(mem.hostRead8(256), "out of range");
    EXPECT_DEATH(mem.store8(0, 1000, 1, 8, false), "out of range");
    EXPECT_DEATH(mem.clearLaneVersions(0), "bad lane");
}

TEST(GuardsDeath, CoreRejectsBadLaneOps)
{
    isa::ProgramBuilder b;
    b.halt();
    const isa::Program program = b.finish();
    nvp::DataMemory mem(util::Rng(1), 256);
    nvp::Core core(&program, &mem, {}, util::Rng(2));
    nvp::RegSnapshot regs{};
    EXPECT_DEATH(core.activateLane(0, regs, 8, 0), "bad lane");
    EXPECT_DEATH(core.setLaneBits(0, 9), "bits out of range");
    core.activateLane(1, regs, 8, 0);
    EXPECT_DEATH(core.activateLane(1, regs, 8, 0), "already active");
}

TEST(GuardsDeath, BuilderRejectsDoubleFinishAndDoubleBind)
{
    isa::ProgramBuilder b;
    b.nop();
    (void)b.finish();
    EXPECT_DEATH(b.nop(), "reused after finish");

    isa::ProgramBuilder b2;
    isa::Label l = b2.makeLabel("x");
    b2.bind(l);
    b2.nop();
    EXPECT_DEATH(b2.bind(l), "already bound");
}

TEST(GuardsDeath, CapacitorRejectsNegativeDraw)
{
    energy::Capacitor cap;
    EXPECT_DEATH(cap.draw(-1.0), "negative");
}

TEST(GuardsDeath, ImageRejectsEmptyDimensions)
{
    EXPECT_DEATH(util::Image(0, 4), "positive");
}

TEST(Guards, GracefulErrorReturns)
{
    // Error-returning (non-fatal) paths.
    EXPECT_TRUE(util::readPgm("/definitely/not/here.pgm").empty());
    util::SceneGenerator gen(8, 8, util::SceneKind::checker, 1);
    EXPECT_FALSE(util::writePgm(gen.frame(0), "/no/such/dir/x.pgm"));
    EXPECT_TRUE(
        trace::PowerTrace::loadCsv("/definitely/not/here.csv").empty());
}
