/**
 * Fixed-bitwidth quality behaviour (paper Sec. 8.1, Figs. 11-14):
 * monotone degradation with fewer bits, ALU-noise vs memory-truncation
 * separation, and per-kernel sensitivity ordering. Also the frame-period
 * calibration memo (sim::frameCycles). No other test in this binary
 * calibrates, so each key's first frameCycles() call here is a miss.
 */

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "check/program_fuzzer.h"
#include "kernels/kernel.h"
#include "sim/functional.h"
#include "sim/system_sim.h"
#include "trace/power_trace.h"

using namespace inc;
using sim::FunctionalConfig;
using sim::runFunctional;

namespace
{

/** cyclesPerFrame() of a fresh precise one-frame run at @p seed. */
double
freshFrameCycles(const kernels::Kernel &kernel, std::uint64_t seed)
{
    FunctionalConfig cfg;
    cfg.frames = 1;
    cfg.bits = 8;
    cfg.seed = seed;
    return runFunctional(kernel, cfg).cyclesPerFrame();
}

double
mseAtBits(const std::string &kernel, int bits, bool alu, bool mem)
{
    FunctionalConfig cfg;
    cfg.frames = 2;
    cfg.bits = bits;
    cfg.approx_alu = alu;
    cfg.approx_mem = mem;
    return runFunctional(kernels::makeKernel(kernel, 32, 32), cfg)
        .meanMse();
}

} // namespace

class QualityVsBits : public ::testing::TestWithParam<std::string>
{
};

TEST_P(QualityVsBits, MseGrowsAsBitsShrink)
{
    const double m8 = mseAtBits(GetParam(), 8, true, true);
    const double m5 = mseAtBits(GetParam(), 5, true, true);
    const double m2 = mseAtBits(GetParam(), 2, true, true);
    EXPECT_DOUBLE_EQ(m8, 0.0);
    EXPECT_GT(m5, 0.0);
    EXPECT_GT(m2, 2.0 * m5) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Kernels, QualityVsBits,
                         ::testing::Values("sobel", "median", "integral",
                                           "susan.smoothing",
                                           "tiff2bw"),
                         [](const auto &info) {
                             std::string n = info.param;
                             for (char &c : n) {
                                 if (c == '.')
                                     c = '_';
                             }
                             return n;
                         });

TEST(QualitySeparation, AluAndMemoryModelsAreIndependent)
{
    // ALU-only runs add noise; memory-only runs truncate. Both degrade,
    // and disabling both at any bitwidth is exact.
    const double alu_only = mseAtBits("median", 3, true, false);
    const double mem_only = mseAtBits("median", 3, false, true);
    const double neither = mseAtBits("median", 3, false, false);
    EXPECT_GT(alu_only, 0.0);
    EXPECT_GT(mem_only, 0.0);
    EXPECT_DOUBLE_EQ(neither, 0.0);
}

TEST(QualitySeparation, SobelLessAmenableThanMedian)
{
    // Paper Sec. 8.1: sobel degrades much faster than median under
    // fixed-width approximation (gradients amplify noise).
    const double sobel4 = mseAtBits("sobel", 4, true, true);
    const double median4 = mseAtBits("median", 4, true, true);
    EXPECT_GT(sobel4, median4);
}

TEST(QualitySeparation, MemoryTruncationDeterministic)
{
    // Truncation is deterministic: two memory-only runs agree exactly.
    FunctionalConfig cfg;
    cfg.frames = 1;
    cfg.bits = 4;
    cfg.approx_alu = false;
    const auto a = runFunctional(kernels::makeKernel("sobel"), cfg);
    const auto b = runFunctional(kernels::makeKernel("sobel"), cfg);
    EXPECT_EQ(a.outputs[0], b.outputs[0]);
}

TEST(QualityPsnr, ReasonableRangesAtModerateBits)
{
    // Around 4-6 bits, PSNR should land in the paper's 20-50 dB band
    // for the amenable kernels (Figs. 12/14).
    FunctionalConfig cfg;
    cfg.frames = 2;
    cfg.bits = 6;
    const auto median =
        runFunctional(kernels::makeKernel("median"), cfg);
    EXPECT_GT(median.meanPsnr(), 20.0);
    cfg.bits = 4;
    const auto integral =
        runFunctional(kernels::makeKernel("integral"), cfg);
    EXPECT_GT(integral.meanPsnr(), 15.0);
}

TEST(QualityDeterminism, SameSeedSameOutputs)
{
    FunctionalConfig cfg;
    cfg.frames = 1;
    cfg.bits = 2;
    cfg.seed = 123;
    const auto a = runFunctional(kernels::makeKernel("median"), cfg);
    const auto b = runFunctional(kernels::makeKernel("median"), cfg);
    EXPECT_EQ(a.outputs[0], b.outputs[0]);
}

TEST(FrameCycles, MissHitAndFreshRunAgreeForEveryKernel)
{
    std::vector<std::string> names = kernels::kernelNames();
    names.push_back("patmatch");
    // One sample is enough: the frame period is fixed at construction.
    const trace::PowerTrace trace(std::vector<double>(1, 0.0), "dark");
    for (const std::uint64_t seed : {2017u, 52361u}) {
        for (const std::string &name : names) {
            SCOPED_TRACE(name + " @ seed " + std::to_string(seed));
            const kernels::Kernel kernel = kernels::makeKernel(name);
            const double fresh = freshFrameCycles(kernel, seed);
            ASSERT_GT(fresh, 0.0);
            EXPECT_EQ(sim::frameCycles(kernel, seed), fresh); // miss
            EXPECT_EQ(sim::frameCycles(kernel, seed), fresh); // hit

            sim::SimConfig cfg;
            cfg.seed = seed;
            cfg.score_quality = false;
            sim::SystemSimulator s(kernel, &trace, cfg);
            // 100 cycles of the 1 MHz core per 0.1 ms period unit.
            EXPECT_EQ(s.run().frame_period_tenth_ms,
                      std::max(10.0,
                               cfg.frame_period_factor * fresh / 100));
        }
    }
}

TEST(FrameCycles, KernelsSharingANameGetTheirOwnValue)
{
    // The fuzzer names a program by its seed alone, so two genome
    // lengths of one seed are two programs under one name: a memo keyed
    // by name would answer the second with the first's cycles.
    const check::ProgramFuzzer fuzzer;
    const check::FuzzedProgram shorter = fuzzer.generate(7, 0, false, 1);
    const check::FuzzedProgram longer = fuzzer.generate(7);
    ASSERT_EQ(shorter.kernel.name, longer.kernel.name);
    ASSERT_LT(shorter.body_ops, longer.body_ops);
    constexpr std::uint64_t kSeed = 2017;
    const double fresh_shorter = freshFrameCycles(shorter.kernel, kSeed);
    const double fresh_longer = freshFrameCycles(longer.kernel, kSeed);
    ASSERT_NE(fresh_shorter, fresh_longer);
    EXPECT_EQ(sim::frameCycles(shorter.kernel, kSeed), fresh_shorter);
    EXPECT_EQ(sim::frameCycles(longer.kernel, kSeed), fresh_longer);
    EXPECT_EQ(sim::frameCycles(shorter.kernel, kSeed), fresh_shorter);
}
