/** Energy model and capacitor behaviour. */

#include <algorithm>

#include <gtest/gtest.h>

#include "energy/capacitor.h"
#include "energy/energy_model.h"

using namespace inc::energy;
using inc::isa::Op;
using inc::nvm::RetentionPolicy;

TEST(EnergyModel, FullPrecisionMatchesCalibration)
{
    // 0.209 mW at 1 MHz -> 0.209 nJ per cycle for a 1-cycle ALU op.
    EnergyModel m;
    EXPECT_NEAR(m.instructionEnergyNj(Op::add, 8), 0.209, 1e-9);
}

TEST(EnergyModel, EnergyScalesDownWithBits)
{
    EnergyModel m;
    const double e8 = m.instructionEnergyNj(Op::add, 8);
    const double e4 = m.instructionEnergyNj(Op::add, 4);
    const double e1 = m.instructionEnergyNj(Op::add, 1);
    EXPECT_GT(e8, e4);
    EXPECT_GT(e4, e1);
    // The base is bit-independent: 1-bit still costs >40% of the full
    // energy (the paper's ~2x forward-progress gain, Fig. 15).
    EXPECT_GT(e1 / e8, 0.4);
    EXPECT_LT(e1 / e8, 0.6);
}

TEST(EnergyModel, SimdLanesShareTheBase)
{
    EnergyModel m;
    const double solo = m.instructionEnergyNj(Op::add, 8);
    const double with_lanes = m.instructionEnergyNj(Op::add, 8, 16);
    // Two extra full-precision lanes cost far less than two extra
    // instructions (shared fetch/decode, narrow packed datapath) but
    // are not free.
    EXPECT_LT(with_lanes, 2.2 * solo);
    EXPECT_GT(with_lanes, 1.3 * solo);
}

TEST(EnergyModel, MultiCycleOpsCostMore)
{
    EnergyModel m;
    EXPECT_GT(m.instructionEnergyNj(Op::mul, 8),
              3.0 * m.instructionEnergyNj(Op::add, 8));
    EXPECT_GT(m.instructionEnergyNj(Op::divu, 8),
              m.instructionEnergyNj(Op::mul, 8));
    EXPECT_GT(m.instructionEnergyNj(Op::st8, 8),
              m.instructionEnergyNj(Op::ld8, 8));
}

TEST(EnergyModel, ApproximateStoresAreDiscounted)
{
    EnergyModel m;
    EXPECT_LT(m.instructionEnergyNj(Op::st8, 8, 0, RetentionPolicy::log),
              m.instructionEnergyNj(Op::st8, 8, 0,
                                    RetentionPolicy::full));
}

TEST(EnergyModel, BackupCalibrationAnchor)
{
    // A full-retention single-version backup is ~200 nJ (Sec. 3.2
    // system-level numbers; see EXPERIMENTS.md calibration notes).
    EnergyModel m;
    const double backup = m.backupEnergyNj(RetentionPolicy::full, 1);
    EXPECT_GT(backup, 90.0);
    EXPECT_LT(backup, 320.0);
    // Restore is a fraction of the backup.
    EXPECT_NEAR(m.restoreEnergyNj(1), 0.3 * backup, 1e-9);
}

TEST(EnergyModel, BackupScalesWithVersionsAndPolicy)
{
    EnergyModel m;
    const double v1 = m.backupEnergyNj(RetentionPolicy::full, 1);
    const double v4 = m.backupEnergyNj(RetentionPolicy::full, 4);
    EXPECT_GT(v4, v1);
    EXPECT_LT(v4, 4.0 * v1); // control state is shared

    EXPECT_LT(m.backupEnergyNj(RetentionPolicy::log, 1), v1);
    EXPECT_LT(m.backupEnergyNj(RetentionPolicy::linear, 1), v1);
    EXPECT_LT(m.backupEnergyNj(RetentionPolicy::log, 1),
              m.backupEnergyNj(RetentionPolicy::linear, 1));
    EXPECT_LT(m.backupEnergyNj(RetentionPolicy::linear, 1),
              m.backupEnergyNj(RetentionPolicy::parabola, 1));
}

TEST(EnergyModel, MaxInstructionEnergyIsTheBruteForceMaximum)
{
    // The corners bits {1, 8} x lanes {1, max_lanes} must find the
    // maximum over the whole box, for either sign of the lane share and
    // store discounts large and small.
    const RetentionPolicy policies[] = {
        RetentionPolicy::full, RetentionPolicy::linear,
        RetentionPolicy::log, RetentionPolicy::parabola};
    for (const double lane_share : {-0.3, 0.0, 0.6, 1.0}) {
        for (const double mul_factor : {0.5, 1.25}) {
            for (const double store_extra_nj : {0.0, 0.08, 1.5}) {
                EnergyParams p;
                p.lane_share = lane_share;
                p.mul_factor = mul_factor;
                p.store_extra_nj = store_extra_nj;
                const EnergyModel m(p);
                for (int max_lanes = 1; max_lanes <= 4; ++max_lanes) {
                    double brute = 0.0;
                    for (int op = 0;
                         op < static_cast<int>(Op::num_ops); ++op)
                        for (int bits = 1; bits <= 8; ++bits)
                            for (int lanes = 1; lanes <= max_lanes;
                                 ++lanes)
                                for (const auto policy : policies)
                                    brute = std::max(
                                        brute,
                                        m.instructionEnergyNj(
                                            static_cast<Op>(op), bits,
                                            (lanes - 1) * 8, policy));
                    EXPECT_EQ(m.maxInstructionEnergyNj(max_lanes), brute)
                        << "lane_share " << lane_share << ", mul_factor "
                        << mul_factor << ", store_extra_nj "
                        << store_extra_nj << ", max_lanes " << max_lanes;
                }
            }
        }
    }
}

TEST(Capacitor, ChargesWithEfficiencyAndClamps)
{
    CapacitorParams p;
    p.capacity_nj = 100.0;
    p.efficiency = 0.5;
    p.leak_nj_per_ms = 0.0;
    Capacitor cap(p);
    // 1000 uW for 0.1 ms = 100 nJ in, 50 nJ banked.
    cap.step(1000.0, 0.1);
    EXPECT_NEAR(cap.energyNj(), 50.0, 1e-9);
    cap.step(1000.0, 0.1);
    cap.step(1000.0, 0.1);
    EXPECT_NEAR(cap.energyNj(), 100.0, 1e-9); // clamped at capacity
    EXPECT_GT(cap.totalLossNj(), 0.0);
}

TEST(Capacitor, LeakageDrains)
{
    CapacitorParams p;
    p.capacity_nj = 100.0;
    p.initial_frac = 1.0;
    p.leak_nj_per_ms = 1.0;
    Capacitor cap(p);
    cap.step(0.0, 10.0);
    EXPECT_NEAR(cap.energyNj(), 90.0, 1e-9);
}

TEST(Capacitor, MinChargeFloorWastesTrickle)
{
    CapacitorParams p;
    p.capacity_nj = 100.0;
    p.min_charge_uw = 50.0;
    p.leak_nj_per_ms = 0.0;
    Capacitor cap(p);
    cap.step(49.0, 1.0);
    EXPECT_EQ(cap.energyNj(), 0.0);
    cap.step(51.0, 1.0);
    EXPECT_GT(cap.energyNj(), 0.0);
}

TEST(Capacitor, DrawAndDrain)
{
    CapacitorParams p;
    p.capacity_nj = 100.0;
    p.initial_frac = 0.5;
    Capacitor cap(p);
    EXPECT_TRUE(cap.draw(20.0));
    EXPECT_NEAR(cap.energyNj(), 30.0, 1e-9);
    EXPECT_FALSE(cap.draw(40.0));
    EXPECT_NEAR(cap.energyNj(), 30.0, 1e-9);
    cap.drain(50.0);
    EXPECT_EQ(cap.energyNj(), 0.0);
}

TEST(Capacitor, VoltageTracksSqrtOfCharge)
{
    CapacitorParams p;
    p.capacity_nj = 100.0;
    p.initial_frac = 0.25;
    p.v_full = 2.0;
    Capacitor cap(p);
    EXPECT_NEAR(cap.voltage(), 1.0, 1e-9);
    EXPECT_NEAR(cap.fraction(), 0.25, 1e-12);
}
