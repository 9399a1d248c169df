/**
 * @file
 * The differential fuzzing harness checks itself: deterministic program
 * generation and shrinking, oracle agreement at full precision, mutator
 * round-trips, a clean fuzz run over all trial modes, and — the
 * end-to-end validity proof — an injected recovery bug that must be
 * caught, bundled, replayed bit-exactly and minimized.
 */

#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "check/diff_harness.h"
#include "check/oracle.h"
#include "check/program_fuzzer.h"

using namespace inc;
using namespace inc::check;

TEST(ProgramFuzzer, GenerationIsDeterministicAndShrinkable)
{
    const ProgramFuzzer fuzzer;
    for (const std::uint64_t seed : {1ull, 17ull, 999ull}) {
        SCOPED_TRACE(seed);
        const FuzzedProgram a = fuzzer.generate(seed);
        const FuzzedProgram b = fuzzer.generate(seed);
        EXPECT_EQ(a.body_ops, b.body_ops);
        EXPECT_EQ(a.error_units, b.error_units);
        EXPECT_EQ(a.kernel.program.size(), b.kernel.program.size());

        // Shrinking truncates the genome: a prefix re-generation is a
        // program no longer than the full one, with the same geometry.
        const FuzzedProgram half =
            fuzzer.generate(seed, 0, false, a.body_ops / 2);
        EXPECT_EQ(half.body_ops, a.body_ops / 2);
        EXPECT_LE(half.kernel.program.size(), a.kernel.program.size());
        EXPECT_EQ(half.kernel.width, a.kernel.width);
    }
}

TEST(ProgramFuzzer, OracleMatchesGoldenAtFullPrecision)
{
    // At 8 bits truncation is the identity, so the exact-truncation
    // reference and the precise golden must agree byte-for-byte.
    const ProgramFuzzer fuzzer;
    for (const std::uint64_t seed : {2ull, 5ull, 11ull}) {
        SCOPED_TRACE(seed);
        const FuzzedProgram fp = fuzzer.generate(seed);
        Oracle oracle(fp.kernel, 8, 2, 42);
        ASSERT_EQ(oracle.frames(), 2u);
        for (std::uint32_t f = 0; f < 2; ++f)
            EXPECT_EQ(oracle.exact(f), oracle.golden(f));
    }
}

TEST(TraceMutator, OpsRoundTripThroughSerialization)
{
    util::Rng rng(33);
    const std::vector<MutationOp> ops =
        TraceMutator::randomOps(rng, 6000, 5);
    ASSERT_EQ(ops.size(), 5u);
    const std::vector<MutationOp> back =
        TraceMutator::deserialize(TraceMutator::serialize(ops));
    ASSERT_EQ(back.size(), ops.size());
    for (std::size_t i = 0; i < ops.size(); ++i) {
        EXPECT_EQ(back[i].kind, ops[i].kind);
        EXPECT_EQ(back[i].pos, ops[i].pos);
        EXPECT_EQ(back[i].len, ops[i].len);
        EXPECT_DOUBLE_EQ(back[i].amount, ops[i].amount);
    }
}

TEST(DiffHarness, SmallFuzzRunIsCleanAcrossAllModes)
{
    CheckConfig cfg;
    cfg.trials = 16;
    cfg.master_seed = 3;
    cfg.jobs = 2;
    cfg.trace_samples = 2500;
    const CheckReport report = runCheck(cfg);
    EXPECT_EQ(report.trials, 16);
    EXPECT_TRUE(report.allOk()) << report.summary();
    int covered = 0;
    for (const int n : report.mode_counts)
        covered += n > 0 ? 1 : 0;
    EXPECT_GE(covered, 3); // 16 trials reach at least 3 of the 7 modes
}

TEST(DiffHarness, ExactRecoveryRunsCleanWithEngineDiff)
{
    // The engine-equivalence invariant: every exact_recovery trial
    // re-runs its co-simulation under the reference interpreter and
    // requires the serialized SimResult and metrics JSON to equal the
    // predecoded run byte-for-byte.
    CheckConfig cfg;
    cfg.trials = 8;
    cfg.master_seed = 11;
    cfg.jobs = 2;
    cfg.trace_samples = 2500;
    cfg.engine_diff = true;
    cfg.mode_filter = "exact_recovery";
    const CheckReport report = runCheck(cfg);
    EXPECT_EQ(report.trials, 8);
    EXPECT_TRUE(report.allOk()) << report.summary();
    EXPECT_EQ(report.mode_counts[static_cast<std::size_t>(
                  TrialMode::exact_recovery)],
              8);
}

TEST(DiffHarness, InjectedLeakyBackupIsCaughtAndReplaysDeterministically)
{
    CheckConfig cfg;
    cfg.trials = 24;
    cfg.master_seed = 1;
    cfg.jobs = 2;
    cfg.trace_samples = 3000;
    cfg.inject = BugKind::leaky_backup;
    cfg.repro_dir = ::testing::TempDir() + "check_bundles";
    const CheckReport report = runCheck(cfg);
    ASSERT_FALSE(report.allOk())
        << "leaky_backup injection must trip the exact-recovery "
           "invariant";

    const TrialFailure &fail = report.failures.front();
    ASSERT_FALSE(fail.bundle_dir.empty());

    // The bundle is self-contained: loading it back and re-running must
    // reproduce the identical first divergence, run after run.
    TrialSpec replayed;
    ASSERT_TRUE(loadBundle(fail.bundle_dir, &replayed));
    const Divergence d1 = runTrial(replayed);
    const Divergence d2 = runTrial(replayed);
    ASSERT_TRUE(d1.violated);
    EXPECT_EQ(d1.invariant, fail.divergence.invariant);
    EXPECT_EQ(d1.frame, fail.divergence.frame);
    EXPECT_EQ(d1.byte, fail.divergence.byte);
    EXPECT_EQ(d1.expected, fail.divergence.expected);
    EXPECT_EQ(d1.actual, fail.divergence.actual);
    ASSERT_TRUE(d2.violated);
    EXPECT_EQ(d2.frame, d1.frame);
    EXPECT_EQ(d2.byte, d1.byte);
    EXPECT_EQ(d2.actual, d1.actual);
}

TEST(DiffHarness, MinimizationShrinksAFailingSpec)
{
    CheckConfig cfg;
    cfg.trials = 40;
    cfg.master_seed = 1;
    cfg.trace_samples = 3000;
    cfg.inject = BugKind::leaky_backup;

    TrialSpec failing;
    bool found = false;
    for (const TrialSpec &spec : expandTrials(cfg)) {
        if (spec.bug == BugKind::none)
            continue;
        if (runTrial(spec).violated) {
            failing = spec;
            found = true;
            break;
        }
    }
    ASSERT_TRUE(found) << "no exact-recovery trial tripped on the "
                          "injected bug";

    const TrialSpec minimized = minimizeTrial(failing);
    EXPECT_TRUE(runTrial(minimized).violated);
    EXPECT_LE(minimized.mutations.size(), failing.mutations.size());
    EXPECT_GE(minimized.body_ops, 0); // genome prefix was resolved
}

TEST(DiffHarness, BundleModeIsResolvedByName)
{
    // Mode numbers shift when a mode is retired; a bundle's mode_name
    // decides, and a name this build does not know fails the load.
    TrialSpec spec;
    spec.mode = TrialMode::fleet_merge;
    spec.seed = 5;
    spec.program_seed = 9;
    const std::string dir = ::testing::TempDir() + "bundle_by_name";
    ASSERT_FALSE(writeBundle(dir, spec, Divergence{}).empty());

    const auto rewrite = [&dir](const std::string &key,
                                const std::string &value) {
        std::ifstream in(dir + "/repro.txt");
        std::ostringstream text;
        for (std::string line; std::getline(in, line);) {
            if (line.rfind(key + "=", 0) == 0)
                line = key + "=" + value;
            text << line << "\n";
        }
        in.close();
        std::ofstream(dir + "/repro.txt") << text.str();
    };

    rewrite("mode", "0");
    TrialSpec loaded;
    ASSERT_TRUE(loadBundle(dir, &loaded));
    EXPECT_EQ(loaded.mode, TrialMode::fleet_merge);

    rewrite("mode_name", "retired_mode");
    EXPECT_FALSE(loadBundle(dir, &loaded));
}
