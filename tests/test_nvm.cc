/**
 * STT-RAM device model, retention-shaping policies (Eq. 1-3) and their
 * expiry cutoffs, and the Fig. 7 write driver.
 */

#include <gtest/gtest.h>

#include "nvm/retention_policy.h"
#include "nvm/stt_model.h"
#include "nvm/write_driver.h"

using namespace inc::nvm;

TEST(SttModel, CurrentDecreasesWithPulseWidth)
{
    SttModel model;
    const double i1 = model.writeCurrentUa(1.0, kRetention1day);
    const double i5 = model.writeCurrentUa(5.0, kRetention1day);
    const double i10 = model.writeCurrentUa(10.0, kRetention1day);
    EXPECT_GT(i1, i5);
    EXPECT_GT(i5, i10);
}

TEST(SttModel, CurrentIncreasesWithRetention)
{
    SttModel model;
    for (double pulse : {1.0, 3.0, 10.0}) {
        EXPECT_LT(model.writeCurrentUa(pulse, kRetention10ms),
                  model.writeCurrentUa(pulse, kRetention1s));
        EXPECT_LT(model.writeCurrentUa(pulse, kRetention1s),
                  model.writeCurrentUa(pulse, kRetention1min));
        EXPECT_LT(model.writeCurrentUa(pulse, kRetention1min),
                  model.writeCurrentUa(pulse, kRetention1day));
    }
}

TEST(SttModel, PaperHeadlineSaving77Percent)
{
    // "77% of write energy can be saved by reducing the retention time
    // from 1 day to 10 ms" (Sec. 3.2).
    SttModel model;
    EXPECT_NEAR(model.savingVsBaseline(kRetention10ms), 0.77, 0.02);
}

TEST(SttModel, CurrentVariationBelow3x)
{
    // Sec. 4: "maximum current variation ratio is less than 3X from
    // 1 day to 10 ms".
    SttModel model;
    const double ratio =
        model.writeCurrentUa(3.0, kRetention1day) /
        model.writeCurrentUa(3.0, kRetention10ms);
    EXPECT_GT(ratio, 1.5);
    EXPECT_LT(ratio, 3.0);
}

TEST(SttModel, DevicePresetsPreserveTheTradeoffShape)
{
    // The retention/write-energy trade-off the paper exploits must hold
    // for every device class its Sec. 4 extension claim covers.
    const SttParams presets[] = {sttDefaultParams(), reramParams(),
                                 feramParams(), pcramParams()};
    for (const SttParams &params : presets) {
        SttModel model(params);
        // Shorter retention is never more expensive.
        EXPECT_LE(model.writeEnergyFj(kRetention10ms),
                  model.writeEnergyFj(kRetention1s));
        EXPECT_LE(model.writeEnergyFj(kRetention1s),
                  model.writeEnergyFj(kRetention1day));
        // Current decreases with pulse width in the precessional regime.
        EXPECT_GT(model.writeCurrentUa(params.nominal_pulse_ns * 0.5,
                                       kRetention1day),
                  model.writeCurrentUa(params.nominal_pulse_ns * 2.0,
                                       kRetention1day));
        EXPECT_GT(model.savingVsBaseline(kRetention10ms), 0.0);
    }
    // Coupling strength ordering: PCRAM > STT > ReRAM > FeRAM.
    const double s_pcram =
        SttModel(pcramParams()).savingVsBaseline(kRetention10ms);
    const double s_stt =
        SttModel(sttDefaultParams()).savingVsBaseline(kRetention10ms);
    const double s_reram =
        SttModel(reramParams()).savingVsBaseline(kRetention10ms);
    const double s_feram =
        SttModel(feramParams()).savingVsBaseline(kRetention10ms);
    EXPECT_GT(s_pcram, s_stt);
    EXPECT_GT(s_stt, s_reram);
    EXPECT_GT(s_reram, s_feram);
}

TEST(RetentionPolicy, PaperEquations)
{
    // Eq. 1: T = 427B - 426.
    EXPECT_DOUBLE_EQ(retentionTenthMs(RetentionPolicy::linear, 1), 1.0);
    EXPECT_DOUBLE_EQ(retentionTenthMs(RetentionPolicy::linear, 8), 2990.0);
    // Eq. 2: T = 4^(B-1) + 9.
    EXPECT_DOUBLE_EQ(retentionTenthMs(RetentionPolicy::log, 1), 10.0);
    EXPECT_DOUBLE_EQ(retentionTenthMs(RetentionPolicy::log, 4), 73.0);
    EXPECT_DOUBLE_EQ(retentionTenthMs(RetentionPolicy::log, 8), 16393.0);
    // Eq. 3: T = 61B^2 + 976B - 905.
    EXPECT_DOUBLE_EQ(retentionTenthMs(RetentionPolicy::parabola, 1),
                     132.0);
    EXPECT_DOUBLE_EQ(retentionTenthMs(RetentionPolicy::parabola, 8),
                     10807.0);
}

TEST(RetentionPolicy, MonotoneInBitIndex)
{
    for (auto policy : {RetentionPolicy::linear, RetentionPolicy::log,
                        RetentionPolicy::parabola}) {
        for (int b = 1; b < 8; ++b) {
            EXPECT_LT(retentionTenthMs(policy, b),
                      retentionTenthMs(policy, b + 1))
                << policyName(policy) << " bit " << b;
        }
    }
}

TEST(RetentionPolicy, NameRoundTrip)
{
    for (auto policy : {RetentionPolicy::full, RetentionPolicy::linear,
                        RetentionPolicy::log, RetentionPolicy::parabola})
        EXPECT_EQ(policyFromName(policyName(policy)), policy);
}

TEST(RetentionEnergyTable, PolicyOrderingMatchesPaper)
{
    // Log frees the most backup energy, parabola the least (Sec. 8.4).
    RetentionEnergyTable table;
    EXPECT_GT(table.wordSaving(RetentionPolicy::log),
              table.wordSaving(RetentionPolicy::linear));
    EXPECT_GT(table.wordSaving(RetentionPolicy::linear),
              table.wordSaving(RetentionPolicy::parabola));
    EXPECT_GT(table.wordSaving(RetentionPolicy::parabola), 0.0);
    EXPECT_DOUBLE_EQ(table.wordSaving(RetentionPolicy::full), 0.0);
}

TEST(WriteDriver, OperatingPointsFeasibleForAllPolicies)
{
    WriteDriver driver;
    for (auto policy : {RetentionPolicy::full, RetentionPolicy::linear,
                        RetentionPolicy::log, RetentionPolicy::parabola}) {
        for (int b = 1; b <= 8; ++b) {
            const WritePoint p =
                driver.selectOperatingPoint(retentionSec(policy, b));
            EXPECT_TRUE(p.feasible)
                << policyName(policy) << " bit " << b;
            EXPECT_GT(p.energy_fj, 0.0);
        }
    }
}

TEST(WriteDriver, ShorterRetentionNeverCostsMore)
{
    WriteDriver driver;
    const double e_10ms =
        driver.selectOperatingPoint(kRetention10ms).energy_fj;
    const double e_1day =
        driver.selectOperatingPoint(kRetention1day).energy_fj;
    EXPECT_LT(e_10ms, e_1day);
}

TEST(WriteDriver, OverheadUnder200Transistors)
{
    // Sec. 4: "total overhead is less than 200 transistors per
    // STT-RAM sub-array".
    WriteDriver driver;
    EXPECT_LT(driver.overheadTransistors(), 200);
    EXPECT_GT(driver.overheadTransistors(), 50);
}

TEST(NvmArray, ExpiredCutoffMatchesPolicies)
{
    // Linear: bit1 expires after 0.1 ms, bit8 after 299 ms.
    EXPECT_EQ(expiredCutoff(RetentionPolicy::linear, 0.5), 0);
    EXPECT_EQ(expiredCutoff(RetentionPolicy::linear, 1.5), 1);
    EXPECT_EQ(expiredCutoff(RetentionPolicy::linear, 500.0), 2);
    EXPECT_EQ(expiredCutoff(RetentionPolicy::linear, 3000.0), 8);
    EXPECT_EQ(expiredCutoff(RetentionPolicy::full, 3000.0), 0);
    EXPECT_EQ(expiredCutoff(RetentionPolicy::parabola, 100.0), 0);
}
