/**
 * @file
 * End-to-end warm-restart tests for the sweep journal as every
 * campaign keeps it — a fleet::ResultFolder over src/runner/journal,
 * fed by SweepRunner::runJobs() the way `nvpsim sweep --arena` feeds
 * it: a real fork()ed child journals one sweep job and is SIGKILLed
 * mid-campaign; the parent recovers the journal, resumes the campaign,
 * and the per-job results and merged metrics must equal an
 * uninterrupted golden run byte-for-byte (the kill-and-resume
 * contract, without going through the nvpsim CLI).
 */

#include <gtest/gtest.h>

#include <csignal>
#include <filesystem>
#include <functional>
#include <string>

#include <sys/wait.h>
#include <unistd.h>

#include "fleet/folder.h"
#include "runner/journal.h"
#include "runner/sweep.h"
#include "sim/result_io.h"
#include "sim/system_sim.h"
#include "trace/trace_generator.h"

using namespace inc;

namespace fs = std::filesystem;

namespace
{

std::string
uniqueDir(const char *tag)
{
    const std::string d =
        (fs::temp_directory_path() /
         ("inc-arena-sweep-" + std::to_string(::getpid()) + "-" + tag))
            .string();
    fs::remove_all(d);
    return d;
}

/** 2 jobs (sobel + median on one profile-2 trace), deterministic and
 *  quick; metrics collected so the merge identity is exercised. */
runner::SweepSpec
miniSweep()
{
    runner::SweepSpec sw;
    sw.kernels = {"sobel", "median"};
    trace::TraceGenerator gen(trace::paperProfile(2), 77);
    sw.traces = {gen.generate(2500)};
    sw.variants = {runner::ConfigVariant{
        "base", [](const std::string &) {
            sim::SimConfig cfg;
            cfg.seed = 41;
            return cfg;
        }}};
    sw.master_seed = 77;
    sw.jobs = 1;
    sw.collect_metrics = true;
    return sw;
}

/**
 * `sweep --arena`'s loop: keep @p journal for @p sw's campaign and run
 * on @p runner every job it does not hold; @p after_fold runs after
 * each fold.
 */
runner::SweepReport
journaledRun(runner::SweepRunner &runner, const runner::SweepSpec &sw,
             runner::SweepJournal *journal, const std::string &fp,
             const std::function<void()> &after_fold = {})
{
    fleet::ResultFolder folder(runner::expandSweep(sw));
    std::string error;
    if (!folder.keepJournal(journal, fp, &error) ||
        !folder.runUnfolded(runner, after_fold, &error)) {
        ADD_FAILURE() << error;
        return {};
    }
    return folder.takeReport(0.0, 1);
}

} // namespace

TEST(ArenaSweep, ForkKillResumeIsByteIdentical)
{
    const std::string dir = uniqueDir("forkkill");
    const runner::SweepSpec sw = miniSweep();

    // Golden: the uninterrupted campaign.
    const runner::SweepReport golden = runner::SweepRunner(sw).run();
    ASSERT_TRUE(golden.allOk());
    ASSERT_EQ(golden.results.size(), 2u);
    const std::string golden_merged = golden.mergedMetrics().toJson();

    const std::vector<runner::JobSpec> jobs = runner::expandSweep(sw);
    const std::string fp =
        runner::SweepJournal::fingerprint(sw, jobs, "test");

    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // Child: journal the campaign and die the instant the first
        // job has been recorded — a real SIGKILL, no cleanup, no
        // stdio flush, exactly like a power cut to the process.
        auto journal = runner::SweepJournal::open(dir);
        runner::SweepRunner sweep(sw);
        journaledRun(sweep, sw, journal.get(), fp,
                     [] { std::raise(SIGKILL); });
        ::_exit(2); // not reached: the hook killed us
    }

    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status))
        << "child should die by signal, got status " << status;
    EXPECT_EQ(WTERMSIG(status), SIGKILL);

    // Parent: recover and resume.
    auto journal = runner::SweepJournal::open(dir);
    EXPECT_TRUE(journal->stats().recovered);
    ASSERT_TRUE(journal->bound());
    EXPECT_EQ(journal->boundFingerprint(), fp);
    ASSERT_EQ(journal->jobsTotal(), jobs.size());
    EXPECT_EQ(journal->completedCount(), 1u);

    runner::SweepRunner resumed_runner(sw);
    const runner::SweepReport resumed =
        journaledRun(resumed_runner, sw, journal.get(), fp);
    ASSERT_TRUE(resumed.allOk());
    ASSERT_EQ(resumed.results.size(), golden.results.size());
    for (std::size_t i = 0; i < golden.results.size(); ++i) {
        EXPECT_EQ(sim::serializeResult(resumed.results[i].result),
                  sim::serializeResult(golden.results[i].result))
            << "job " << i;
    }
    EXPECT_EQ(resumed.mergedMetrics().toJson(), golden_merged);
    EXPECT_EQ(journal->completedCount(), jobs.size());

    fs::remove_all(dir);
}

TEST(ArenaSweep, ResumeAfterFullCampaignRunsNothingAndMatches)
{
    const std::string dir = uniqueDir("fullresume");
    const runner::SweepSpec sw = miniSweep();
    const std::vector<runner::JobSpec> jobs = runner::expandSweep(sw);
    const std::string fp =
        runner::SweepJournal::fingerprint(sw, jobs, "test");

    std::string first_merged;
    {
        auto journal = runner::SweepJournal::open(dir);
        runner::SweepRunner sweep(sw);
        const runner::SweepReport r =
            journaledRun(sweep, sw, journal.get(), fp);
        ASSERT_TRUE(r.allOk());
        first_merged = r.mergedMetrics().toJson();
        EXPECT_EQ(journal->completedCount(), jobs.size());
    }

    // Every job is journaled: the "resume" is a pure replay from disk.
    auto journal = runner::SweepJournal::open(dir);
    ASSERT_TRUE(journal->bound());
    EXPECT_EQ(journal->completedCount(), jobs.size());
    int fresh_runs = 0;
    runner::SweepRunner sweep(
        sw, [&fresh_runs](const runner::JobSpec &job,
                          const trace::PowerTrace &trace,
                          util::Rng &rng) {
            ++fresh_runs;
            return runner::SweepRunner::simJob(job, trace, rng);
        });
    const runner::SweepReport r =
        journaledRun(sweep, sw, journal.get(), fp);
    ASSERT_TRUE(r.allOk());
    EXPECT_EQ(fresh_runs, 0);
    EXPECT_EQ(r.mergedMetrics().toJson(), first_merged);

    fs::remove_all(dir);
}
