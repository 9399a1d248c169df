/**
 * @file
 * Conformance tier for the backup-strategy zoo (src/sim/strategy,
 * DESIGN.md §14). The shared contract, asserted over a strategy ×
 * kernel × profile matrix:
 *
 *  - crash-free overlay identity: every registered strategy's
 *    serialized SimResult is byte-identical to the `active` baseline
 *    (a strategy observes the run; it never perturbs it), and its
 *    metrics registry satisfies the full cross-metric identities of
 *    obs/schema.h including the guarded ckpt.* block;
 *
 *  - the freezer's dirty-word backups never write more bytes than the
 *    full-image baseline over the same trajectory;
 *
 *  - a journaled strategy sweep (a fleet::ResultFolder keeping the
 *    journal, fed by SweepRunner::runJobs() as `sweep --arena` feeds
 *    it) whose fork()ed child is SIGKILLed mid-campaign resumes to
 *    byte-identical results.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "fleet/folder.h"
#include "isa/isa.h"
#include "kernels/kernel.h"
#include "obs/observer.h"
#include "obs/schema.h"
#include "runner/journal.h"
#include "runner/sweep.h"
#include "sim/result_io.h"
#include "sim/strategy/strategy.h"
#include "sim/system_sim.h"
#include "trace/trace_generator.h"

using namespace inc;

namespace fs = std::filesystem;

namespace
{

constexpr std::size_t kSamples = 2500; ///< 0.25 s of harvester time

std::string
uniqueDir(const std::string &tag)
{
    const std::string d =
        (fs::temp_directory_path() /
         ("inc-strategy-conf-" + std::to_string(::getpid()) + "-" + tag))
            .string();
    fs::remove_all(d);
    return d;
}

/** The full incidental machinery at dynamic bits — the trajectory with
 *  the most backup/restore traffic per sample. */
sim::SimConfig
trialConfig(sim::StrategyKind kind)
{
    sim::SimConfig cfg;
    cfg.bits.mode = approx::ApproxMode::dynamic;
    cfg.bits.min_bits = 2;
    cfg.bits.max_bits = 8;
    cfg.controller.backup_policy = nvm::RetentionPolicy::full;
    cfg.frame_period_tenth_ms = 50.0;
    cfg.seed = 11;
    cfg.strategy = kind;
    return cfg;
}

/** One run's observable surface for the conformance checks. */
struct RunOut
{
    std::string result;
    sim::StrategyStats stats;
    std::vector<std::string> metric_problems;
};

RunOut
runStrategy(const std::string &kernel, const trace::PowerTrace &power,
            sim::StrategyKind kind)
{
    sim::SimConfig cfg = trialConfig(kind);
    obs::Observer observer;
    cfg.obs = &observer;
    sim::SystemSimulator sim(kernels::makeKernel(kernel), &power, cfg);
    RunOut out;
    out.result = sim::serializeResult(sim.run());
    out.stats = sim.strategy().stats();
    out.metric_problems =
        obs::verifySimMetricIdentities(observer.registry);
    return out;
}

struct MatrixParam
{
    sim::StrategyKind kind;
    std::string kernel;
    int profile;
};

std::vector<MatrixParam>
matrix()
{
    std::vector<MatrixParam> rows;
    for (const sim::StrategyKind kind : sim::allStrategies())
        for (const char *kernel : {"sobel", "median"})
            for (int profile = 1; profile <= 2; ++profile)
                rows.push_back({kind, kernel, profile});
    return rows;
}

class StrategyConformance
    : public ::testing::TestWithParam<MatrixParam>
{
};

} // namespace

TEST_P(StrategyConformance, CrashFreeRunMatchesActiveBaseline)
{
    const MatrixParam p = GetParam();
    trace::TraceGenerator gen(trace::paperProfile(p.profile), 23);
    const trace::PowerTrace power = gen.generate(kSamples);

    const RunOut active =
        runStrategy(p.kernel, power, sim::StrategyKind::active);
    const RunOut run = runStrategy(p.kernel, power, p.kind);

    // Overlay identity: the simulated trajectory never depends on the
    // strategy observing it.
    EXPECT_EQ(run.result, active.result)
        << "strategy " << sim::strategyName(p.kind)
        << " perturbed the simulation";

    // The ckpt.* accounting is internally consistent (schema block).
    EXPECT_TRUE(run.metric_problems.empty())
        << "first: " << run.metric_problems.front();

    // Strategy-shape expectations over the shared trajectory.
    EXPECT_EQ(run.stats.backups, active.stats.backups);
    if (p.kind == sim::StrategyKind::freezer) {
        EXPECT_LE(run.stats.backup_bytes, active.stats.backup_bytes)
            << "dirty-word backup wrote more than the full image";
        EXPECT_LE(run.stats.words_written, run.stats.words_tracked);
    }
    if (p.kind == sim::StrategyKind::ondemand) {
        EXPECT_GE(run.stats.backup_bytes, active.stats.backup_bytes)
            << "extra watermark snapshots cannot shrink backup bytes";
    }
    if (p.kind == sim::StrategyKind::active) {
        EXPECT_EQ(run.stats.backup_bytes,
                  run.stats.backups * isa::kDataMemBytes);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, StrategyConformance, ::testing::ValuesIn(matrix()),
    [](const ::testing::TestParamInfo<MatrixParam> &info) {
        return std::string(sim::strategyName(info.param.kind)) + "_" +
               info.param.kernel + "_p" +
               std::to_string(info.param.profile);
    });

namespace
{

/** 2-job sweep whose variants select different strategies. */
runner::SweepSpec
strategySweep()
{
    runner::SweepSpec sw;
    sw.kernels = {"sobel"};
    trace::TraceGenerator gen(trace::paperProfile(2), 53);
    sw.traces = {gen.generate(2500)};
    sw.variants = {
        runner::ConfigVariant{"freezer",
                              [](const std::string &) {
                                  sim::SimConfig cfg = trialConfig(
                                      sim::StrategyKind::freezer);
                                  return cfg;
                              }},
        runner::ConfigVariant{"ondemand",
                              [](const std::string &) {
                                  sim::SimConfig cfg = trialConfig(
                                      sim::StrategyKind::ondemand);
                                  return cfg;
                              }},
    };
    sw.master_seed = 53;
    sw.jobs = 1;
    sw.collect_metrics = true;
    return sw;
}

/**
 * `sweep --arena`'s loop: keep @p journal for @p sw's campaign and run
 * every job it does not hold; @p after_fold runs after each fold.
 */
runner::SweepReport
journaledRun(const runner::SweepSpec &sw, runner::SweepJournal *journal,
             const std::string &fp,
             const std::function<void()> &after_fold = {})
{
    fleet::ResultFolder folder(runner::expandSweep(sw));
    runner::SweepRunner runner(sw);
    std::string error;
    if (!folder.keepJournal(journal, fp, &error) ||
        !folder.runUnfolded(runner, after_fold, &error)) {
        ADD_FAILURE() << error;
        return {};
    }
    return folder.takeReport(0.0, 1);
}

} // namespace

TEST(StrategyCrash, ForkKillResumeOfStrategySweepIsByteIdentical)
{
    const std::string dir = uniqueDir("sweepkill");
    const runner::SweepSpec sw = strategySweep();

    const runner::SweepReport golden = runner::SweepRunner(sw).run();
    ASSERT_TRUE(golden.allOk());
    ASSERT_EQ(golden.results.size(), 2u);
    const std::string golden_merged = golden.mergedMetrics().toJson();

    const std::vector<runner::JobSpec> jobs = runner::expandSweep(sw);
    const std::string fp =
        runner::SweepJournal::fingerprint(sw, jobs, "strategy-test");

    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        auto journal = runner::SweepJournal::open(dir);
        journaledRun(sw, journal.get(), fp,
                     [] { std::raise(SIGKILL); });
        ::_exit(2); // not reached: the hook killed us
    }

    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status));
    EXPECT_EQ(WTERMSIG(status), SIGKILL);

    auto journal = runner::SweepJournal::open(dir);
    EXPECT_TRUE(journal->stats().recovered);
    ASSERT_TRUE(journal->bound());
    EXPECT_EQ(journal->completedCount(), 1u);

    const runner::SweepReport resumed =
        journaledRun(sw, journal.get(), fp);
    ASSERT_TRUE(resumed.allOk());
    ASSERT_EQ(resumed.results.size(), golden.results.size());
    for (std::size_t i = 0; i < golden.results.size(); ++i) {
        EXPECT_EQ(sim::serializeResult(resumed.results[i].result),
                  sim::serializeResult(golden.results[i].result))
            << "job " << i;
    }
    EXPECT_EQ(resumed.mergedMetrics().toJson(), golden_merged);
    fs::remove_all(dir);
}

#ifdef INC_NVPSIM_PATH
namespace
{

/** Run a shell command; returns its exit code and combined output. */
int
runCommand(const std::string &cmd, std::string *output)
{
    FILE *pipe = ::popen((cmd + " 2>&1").c_str(), "r");
    if (!pipe)
        return -1;
    char buf[256];
    while (std::fgets(buf, sizeof buf, pipe))
        *output += buf;
    const int status = ::pclose(pipe);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

} // namespace

TEST(StrategyCli, RejectsUnknownStrategyWithTheValidNames)
{
    // Same hard-error shape as a bound arena without --resume: fatal,
    // nonzero exit, and the message names every valid choice.
    std::string out;
    const int code = runCommand(
        std::string(INC_NVPSIM_PATH) +
            " run --kernel sobel --profile 2 --seconds 0.1"
            " --strategy lazy",
        &out);
    EXPECT_NE(code, 0);
    EXPECT_NE(out.find("fatal:"), std::string::npos) << out;
    EXPECT_NE(out.find("unknown --strategy 'lazy'"), std::string::npos)
        << out;
    for (const sim::StrategyKind kind : sim::allStrategies())
        EXPECT_NE(out.find(sim::strategyName(kind)), std::string::npos)
            << out;
}

TEST(StrategyCli, AcceptsEveryRegisteredName)
{
    for (const sim::StrategyKind kind : sim::allStrategies()) {
        std::string out;
        const int code = runCommand(
            std::string(INC_NVPSIM_PATH) +
                " run --kernel sobel --profile 2 --seconds 0.2"
                " --strategy " +
                sim::strategyName(kind),
            &out);
        EXPECT_EQ(code, 0) << out;
    }
}
#endif // INC_NVPSIM_PATH

TEST(StrategyRegistry, NamesRoundTripAndActiveIsFirst)
{
    EXPECT_EQ(sim::allStrategies().size(),
              static_cast<std::size_t>(sim::kNumStrategies));
    EXPECT_EQ(sim::allStrategies().front(), sim::StrategyKind::active);
    for (const sim::StrategyKind kind : sim::allStrategies()) {
        const char *name = sim::strategyName(kind);
        const auto parsed = sim::strategyFromName(name);
        ASSERT_TRUE(parsed.has_value()) << name;
        EXPECT_EQ(*parsed, kind);
        EXPECT_NE(sim::strategyNames().find(name), std::string::npos);
    }
    EXPECT_FALSE(sim::strategyFromName("lazy").has_value());
    EXPECT_FALSE(sim::strategyFromName("").has_value());
}
