/**
 * @file
 * Active-checkpointing restore paths: torn (partially copied)
 * checkpoint images, power-up restores, and retention-shaped expiry of
 * image bits across dark periods (nvm::RetentionPolicy applied to the
 * FeRAM checkpoint image).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "nvm/retention_policy.h"
#include "sim/active_checkpoint.h"
#include "trace/power_trace.h"

using namespace inc;
using sim::ActiveCheckpointConfig;
using sim::ActiveCheckpointResult;
using sim::runActiveCheckpoint;

namespace
{

/** Piecewise-constant trace: `phases` of (power_uw, samples). */
trace::PowerTrace
phasedTrace(
    const std::vector<std::pair<double, std::size_t>> &phases)
{
    std::vector<double> samples;
    for (const auto &[uw, n] : phases)
        samples.insert(samples.end(), n, uw);
    return trace::PowerTrace(std::move(samples), "phased");
}

} // namespace

TEST(ActiveCheckpointRestore, SteadyPowerNeverTearsAndFullNeverExpires)
{
    // Steady income above the copy-loop drain rate: a checkpoint that
    // has started always completes, so no image ever tears. Brown-outs
    // between checkpoints still happen (the default config is net
    // energy-negative once checkpoint cost is included), and each
    // reboot restores the image — with the default full-retention
    // policy, never with expired bits.
    std::vector<double> flat(20000, 400.0);
    trace::PowerTrace trace(std::move(flat), "flat");
    ActiveCheckpointConfig cfg;
    const ActiveCheckpointResult r = runActiveCheckpoint(trace, cfg);
    EXPECT_GT(r.checkpoints, 10u);
    EXPECT_EQ(r.torn_checkpoints, 0u);
    EXPECT_GT(r.restores, 0u);
    EXPECT_EQ(r.restore_bit_expirations, 0u);
}

TEST(ActiveCheckpointRestore, PowerCollapseTearsACheckpointMidCopy)
{
    // A large image with a tight interval: the first checkpoint after
    // the power cut completes on stored charge, but the next one starts
    // optimistically (voltage trigger only) and runs out of energy
    // partway through the copy.
    ActiveCheckpointConfig cfg;
    cfg.state_bytes = 2048;
    cfg.checkpoint_interval_instr = 100;
    cfg.capacity_nj = 4000.0; // room to boot despite the large image
    const auto trace = phasedTrace({{1500.0, 120}, {0.0, 400}});
    const ActiveCheckpointResult r = runActiveCheckpoint(trace, cfg);
    EXPECT_GE(r.checkpoints, 1u);
    EXPECT_GE(r.torn_checkpoints, 1u);
    // The torn image is discarded; the work since the previous intact
    // checkpoint is re-executed, never persisted.
    EXPECT_GT(r.instructions_lost, 0u);
    EXPECT_LE(r.forward_progress + r.instructions_lost,
              r.instructions_executed);
}

TEST(ActiveCheckpointRestore, ShapedRetentionExpiresImageBitsWhileDark)
{
    // Boot and checkpoint under good income, go dark for ~120 ms, then
    // reboot: exactly one restore-from-image pass. With full retention
    // the image survives intact; shaped policies expire low bits, and
    // the log shaping (fastest-decaying low bits) expires strictly more
    // of them than linear.
    const auto trace =
        phasedTrace({{1000.0, 300}, {0.0, 1200}, {1000.0, 100}});
    auto runWith = [&trace](nvm::RetentionPolicy policy) {
        ActiveCheckpointConfig cfg;
        cfg.checkpoint_policy = policy;
        return runActiveCheckpoint(trace, cfg);
    };

    const auto full = runWith(nvm::RetentionPolicy::full);
    const auto linear = runWith(nvm::RetentionPolicy::linear);
    const auto log = runWith(nvm::RetentionPolicy::log);

    EXPECT_EQ(full.restores, 1u);
    EXPECT_EQ(linear.restores, 1u);
    EXPECT_EQ(log.restores, 1u);

    EXPECT_EQ(full.restore_bit_expirations, 0u);
    EXPECT_GT(linear.restore_bit_expirations, 0u);
    EXPECT_GT(log.restore_bit_expirations,
              linear.restore_bit_expirations);
}

TEST(ActiveCheckpointRestore, ColdBootIsNotARestore)
{
    // No checkpoint ever completes (interval larger than the trace can
    // sustain): power cycles reboot from scratch, not from an image, so
    // no restore passes are counted even across many outages.
    ActiveCheckpointConfig cfg;
    cfg.checkpoint_interval_instr = 1000000;
    const auto trace = phasedTrace(
        {{800.0, 200}, {0.0, 500}, {800.0, 200}, {0.0, 500}});
    const ActiveCheckpointResult r = runActiveCheckpoint(trace, cfg);
    EXPECT_EQ(r.checkpoints, 0u);
    EXPECT_EQ(r.restores, 0u);
    EXPECT_EQ(r.restore_bit_expirations, 0u);
}

// ---- boundary cases ---------------------------------------------------

TEST(ActiveCheckpointBoundary, ExpiredCutoffIsExclusiveAtTheExactLimit)
{
    // Shaped policies: a bit expires only STRICTLY past its retention
    // limit — an image restored at exactly the limit is still intact at
    // that bit. Full retention is the documented exception: at >= the
    // (one-day) limit the whole byte is gone at once.
    const double lin2 =
        nvm::retentionTenthMs(nvm::RetentionPolicy::linear, 2);
    EXPECT_EQ(nvm::expiredCutoff(nvm::RetentionPolicy::linear, lin2), 1);
    EXPECT_EQ(nvm::expiredCutoff(nvm::RetentionPolicy::linear,
                                 std::nextafter(lin2, lin2 + 1.0)),
              2);

    const double log3 =
        nvm::retentionTenthMs(nvm::RetentionPolicy::log, 3);
    EXPECT_EQ(nvm::expiredCutoff(nvm::RetentionPolicy::log, log3), 2);
    EXPECT_EQ(nvm::expiredCutoff(nvm::RetentionPolicy::log,
                                 std::nextafter(log3, log3 + 1.0)),
              3);

    const double full1 =
        nvm::retentionTenthMs(nvm::RetentionPolicy::full, 1);
    EXPECT_EQ(nvm::expiredCutoff(nvm::RetentionPolicy::full,
                                 std::nextafter(full1, 0.0)),
              0);
    EXPECT_EQ(nvm::expiredCutoff(nvm::RetentionPolicy::full, full1), 8);
}

TEST(ActiveCheckpointBoundary, RestoreExpirySteps1TenthMsPastTheLimit)
{
    // End-to-end exclusivity: dark ages are whole 0.1 ms samples, the
    // linear bit-2 limit (427*2-426 = 428 tenth-ms) is a whole number,
    // so growing the dark phase one sample at a time must walk the
    // restore's expiry count through the boundary in a single +1 step —
    // and a dark age landing exactly ON the limit keeps bit 2 alive.
    auto expiryWithDark = [](std::size_t dark) {
        ActiveCheckpointConfig cfg;
        cfg.checkpoint_policy = nvm::RetentionPolicy::linear;
        const auto trace = phasedTrace(
            {{1000.0, 300}, {0.0, dark}, {1000.0, 100}});
        const ActiveCheckpointResult r = runActiveCheckpoint(trace, cfg);
        EXPECT_EQ(r.restores, 1u) << "dark=" << dark;
        return r.restore_bit_expirations;
    };

    // The brown-out lands a fixed (deterministic) number of samples
    // into the dark phase, so the restore's dark age grows by exactly
    // one 0.1 ms unit per extra dark sample: sweep until the count
    // steps onto 2, asserting it only ever moves in +1 steps (an age
    // exactly ON a limit therefore cannot have expired that bit).
    std::uint64_t prev = expiryWithDark(300);
    ASSERT_LE(prev, 1u) << "dark age already past the bit-2 limit at "
                           "the sweep start; widen the sweep";
    bool stepped = false;
    for (std::size_t dark = 301; dark <= 1200; ++dark) {
        const std::uint64_t cur = expiryWithDark(dark);
        ASSERT_GE(cur, prev) << "expiry count regressed at dark="
                             << dark;
        ASSERT_LE(cur - prev, 1u)
            << "one extra 0.1 ms expired more than one bit at dark="
            << dark;
        if (cur == 2u) {
            stepped = true;
            break;
        }
        prev = cur;
    }
    ASSERT_TRUE(stepped)
        << "sweep never crossed the bit-2 retention limit";
}
