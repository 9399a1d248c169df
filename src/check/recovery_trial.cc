#include "check/recovery_trial.h"

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "fleet/folder.h"
#include "fleet/protocol.h"
#include "obs/schema.h"
#include "runner/journal.h"
#include "runner/sweep.h"
#include "sim/result_io.h"
#include "trace/trace_generator.h"
#include "util/rng.h"

namespace inc::check
{

namespace
{

namespace fs = std::filesystem;

constexpr int kScriptRecords = 24;

/**
 * Crash-free oracle of the journal, mirrored call by call alongside the
 * real one: a record is durable exactly when its append returned true,
 * so a reopen must find the binding, the job set and each job's result
 * bytes the calls that returned true left behind, and a log cut back to
 * the size it had after the last of them.
 */
struct Shadow
{
    bool bound = false;
    std::string fingerprint;
    std::size_t jobs = 0;
    std::map<std::size_t, runner::JobResult> durable;
    std::uintmax_t durable_size = 0; ///< log file size after the last
                                     ///< append that returned true
};

/** A job result drawn from @p rng: some failed, some with metrics, every
 *  field that reaches the journal's payload varied. */
runner::JobResult
syntheticResult(util::Rng &rng, std::size_t index)
{
    runner::JobResult jr;
    jr.spec.index = index;
    jr.ok = rng.nextBounded(6) != 0;
    jr.attempts = 1 + static_cast<int>(rng.nextBounded(2));
    jr.result.forward_progress = rng.next();
    jr.result.backups = rng.nextBounded(100000);
    jr.result.on_time_fraction = rng.nextDouble();
    jr.result.consumed_energy_nj = rng.nextDouble() * 1e6;
    jr.result.mean_psnr = rng.nextDouble() * 60.0;
    if (rng.nextBool())
        jr.metrics.counter(obs::kSimSamples)
            .inc(rng.nextBounded(1u << 20));
    return jr;
}

/** The script's campaign: @p count jobs that carry only their index. */
std::vector<runner::JobSpec>
scriptJobs(std::size_t count)
{
    std::vector<runner::JobSpec> jobs(count);
    for (std::size_t i = 0; i < count; ++i)
        jobs[i].index = i;
    return jobs;
}

/**
 * Run the deterministic script through a ResultFolder keeping the
 * journal, as `sweep --arena` and `serve` do: bind 1–8 jobs, then fold
 * synthetic results, including failed ones, repeats and indices past
 * the campaign, which must append nothing. The rng draw sequence is
 * identical in the dry and faulted runs (no draw depends on journal
 * outcomes); the faulted run simply stops at the crash instant — the
 * first call after which the injected fault has tripped — exactly as
 * a killed process would.
 */
void
runScript(runner::SweepJournal *journal, const std::string &log_path,
          util::Rng rng, Shadow *sh)
{
    sh->durable_size = fs::file_size(log_path);
    const std::size_t jobs = 1 + rng.nextBounded(8);
    char fp[16];
    std::snprintf(fp, sizeof fp, "%08x",
                  static_cast<unsigned>(rng.nextBounded(1ull << 32)));
    fleet::ResultFolder folder(scriptJobs(jobs));
    std::string error;
    if (!folder.keepJournal(journal, fp, &error))
        return; // the bind did not persist: the log is dead
    sh->bound = true;
    sh->fingerprint = fp;
    sh->jobs = jobs;
    sh->durable_size = fs::file_size(log_path);
    for (int i = 0; i < kScriptRecords && !journal->failed(); ++i) {
        const std::size_t index = rng.nextBounded(jobs + 2);
        const runner::JobResult jr = syntheticResult(rng, index);
        const std::size_t recorded = folder.recordedCount();
        // The folder refuses an index past the campaign and a repeat
        // with other bytes; only the count says what persisted.
        (void)folder.fold(fleet::toDecoded(jr), &error);
        if (folder.recordedCount() > recorded) {
            sh->durable.emplace(index, jr);
            sh->durable_size = fs::file_size(log_path);
        }
    }
}

Divergence
journalDivergence(const std::string &invariant, const std::string &detail)
{
    Divergence d;
    d.violated = true;
    d.invariant = invariant;
    d.detail = detail;
    return d;
}

/** Verify a reopened journal against the shadow. */
Divergence
verifyRecovered(runner::SweepJournal &journal, const std::string &log_path,
                const Shadow &sh, std::uint64_t fault_at)
{
    std::ostringstream ctx;
    ctx << " (fault_at=" << fault_at << " durable=" << sh.durable.size()
        << ")";

    if (journal.bound() != sh.bound ||
        journal.boundFingerprint() != sh.fingerprint ||
        journal.jobsTotal() != sh.jobs)
        return journalDivergence(
            "arena_bind", "recovered binding '" +
                              journal.boundFingerprint() + "' x " +
                              std::to_string(journal.jobsTotal()) +
                              " jobs, expected '" + sh.fingerprint +
                              "' x " + std::to_string(sh.jobs) +
                              ctx.str());
    if (journal.completedCount() != sh.durable.size())
        return journalDivergence(
            "arena_jobs", "recovered " +
                              std::to_string(journal.completedCount()) +
                              " completed jobs" + ctx.str());
    // Two indices past the campaign, where the script also recorded.
    for (std::size_t i = 0; i < sh.jobs + 2; ++i) {
        if (journal.completed(i) != (sh.durable.count(i) > 0))
            return journalDivergence(
                "arena_jobs", "job " + std::to_string(i) +
                                  (journal.completed(i)
                                       ? " recovered but never durable"
                                       : " durable but not recovered") +
                                  ctx.str());
    }
    // Read the durable jobs back the way a resumed campaign does. A
    // bound journal's keepJournal appends nothing.
    fleet::ResultFolder folder(scriptJobs(sh.jobs));
    std::string error;
    if (sh.bound && !folder.keepJournal(&journal, sh.fingerprint, &error))
        return journalDivergence("arena_result",
                                 "recovered journal " + error + ctx.str());
    for (const auto &[index, want] : sh.durable) {
        const runner::JobResult &got = folder.result(index);
        if (sim::serializeResult(got.result) !=
                sim::serializeResult(want.result) ||
            got.attempts != want.attempts ||
            got.metrics.toJson() != want.metrics.toJson())
            return journalDivergence("arena_result",
                                     "job " + std::to_string(index) +
                                         " recovered different bytes" +
                                         ctx.str());
    }
    const std::uintmax_t size = fs::file_size(log_path);
    if (size != sh.durable_size)
        return journalDivergence(
            "arena_tail", "recovered log is " + std::to_string(size) +
                              " bytes, the durable prefix " +
                              std::to_string(sh.durable_size) +
                              ctx.str());
    return {};
}

/** Scratch directory unique to this (process, trial). */
std::string
trialDir(const TrialSpec &spec, const char *which)
{
    std::ostringstream name;
    name << "inc-arena-fuzz-" << ::getpid() << "-" << spec.seed << "-"
         << spec.index << "-" << which;
    return (fs::temp_directory_path() / name.str()).string();
}

/**
 * Warm-restart byte-identity: an uninterrupted mini-sweep (golden) vs
 * the same campaign journaled one job deep, recovered from disk, and
 * resumed. Per-job serialized results and the merged metrics JSON must
 * match byte-for-byte.
 */
Divergence
runSweepResumeCheck(const TrialSpec &spec, const std::string &dir)
{
    runner::SweepSpec sw;
    sw.kernels = {"sobel"};
    trace::TraceGenerator gen(
        trace::paperProfile(spec.profile), spec.seed);
    sw.traces = {gen.generate(1200)};
    const std::uint64_t seed = spec.program_seed | 1;
    sw.variants = {
        runner::ConfigVariant{"base",
                              [seed](const std::string &) {
                                  sim::SimConfig cfg;
                                  cfg.seed = seed;
                                  return cfg;
                              }},
        runner::ConfigVariant{"alt",
                              [seed](const std::string &) {
                                  sim::SimConfig cfg;
                                  cfg.seed = seed + 1;
                                  cfg.bits.mode =
                                      approx::ApproxMode::dynamic;
                                  cfg.bits.min_bits = 4;
                                  return cfg;
                              }},
    };
    sw.master_seed = spec.seed;
    sw.jobs = 1;
    sw.collect_metrics = true;

    runner::SweepReport golden = runner::SweepRunner(sw).run();
    if (!golden.allOk())
        return journalDivergence("arena_sweep",
                                 "golden mini-sweep failed: " +
                                     golden.failureReport());
    const std::string golden_merged =
        golden.mergedMetrics().toJson();

    const std::vector<runner::JobSpec> jobs = runner::expandSweep(sw);
    const std::string fp =
        runner::SweepJournal::fingerprint(sw, jobs, "fuzz");
    std::string error;

    // Partial campaign: job 0 folded into a kept journal, then the
    // process "dies" (the journal is closed with no shutdown path and
    // reopened through recovery).
    {
        std::unique_ptr<runner::SweepJournal> journal =
            runner::SweepJournal::open(dir);
        fleet::ResultFolder first(jobs);
        if (!first.keepJournal(journal.get(), fp, &error) ||
            !first.fold(fleet::toDecoded(golden.results[0]), &error) ||
            first.recordedCount() != 1)
            return journalDivergence("arena_sweep",
                                     "journal record failed: " + error);
    }

    std::unique_ptr<runner::SweepJournal> journal =
        runner::SweepJournal::open(dir);
    if (!journal->bound() || journal->boundFingerprint() != fp)
        return journalDivergence("arena_sweep",
                                 "journal lost its campaign binding "
                                 "across recovery");
    if (!journal->completed(0) || journal->completed(1))
        return journalDivergence("arena_sweep",
                                 "journal completion set wrong after "
                                 "recovery");

    // Resume as `sweep --arena --resume` does: fold the journal, run
    // the jobs it lacks and fold each as it finishes.
    fleet::ResultFolder folder(jobs);
    runner::SweepRunner resumed_runner(sw);
    if (!folder.keepJournal(journal.get(), fp, &error) ||
        !folder.runUnfolded(resumed_runner, {}, &error))
        return journalDivergence("arena_sweep", "resume failed: " + error);
    const runner::SweepReport resumed = folder.takeReport(0.0, 1);
    if (!resumed.allOk())
        return journalDivergence("arena_sweep",
                                 "resumed mini-sweep failed: " +
                                     resumed.failureReport());

    for (std::size_t i = 0; i < golden.results.size(); ++i) {
        const std::string want =
            sim::serializeResult(golden.results[i].result);
        const std::string got =
            sim::serializeResult(resumed.results[i].result);
        if (want != got) {
            std::size_t byte = 0;
            while (byte < std::min(want.size(), got.size()) &&
                   want[byte] == got[byte])
                ++byte;
            Divergence d = journalDivergence(
                "arena_sweep_result",
                "resumed job " + std::to_string(i) +
                    " result differs from golden at byte " +
                    std::to_string(byte));
            d.byte = byte;
            return d;
        }
    }
    const std::string resumed_merged =
        resumed.mergedMetrics().toJson();
    if (resumed_merged != golden_merged) {
        std::size_t byte = 0;
        while (byte <
                   std::min(resumed_merged.size(), golden_merged.size()) &&
               resumed_merged[byte] == golden_merged[byte])
            ++byte;
        Divergence d = journalDivergence(
            "arena_sweep_metrics",
            "resumed merged metrics differ from golden at byte " +
                std::to_string(byte));
        d.byte = byte;
        return d;
    }
    return {};
}

} // namespace

Divergence
runArenaTrial(const TrialSpec &spec)
{
    const std::string dry_dir = trialDir(spec, "dry");
    const std::string crash_dir = trialDir(spec, "crash");
    const std::string sweep_dir = trialDir(spec, "sweep");
    const std::string crash_log = crash_dir + "/arena.log";
    std::error_code ec;
    fs::remove_all(dry_dir, ec);
    fs::remove_all(crash_dir, ec);
    fs::remove_all(sweep_dir, ec);

    Divergence result;
    try {
        // Dry run: measure the script's full log so the fault point can
        // be sampled anywhere in it (including past the end — a crash
        // after the final record).
        std::uint64_t total_log = 0;
        {
            Shadow dry;
            std::unique_ptr<runner::SweepJournal> journal =
                runner::SweepJournal::open(dry_dir);
            runScript(journal.get(), dry_dir + "/arena.log",
                      util::Rng(spec.program_seed), &dry);
            total_log = journal->stats().appended_bytes;
        }

        util::Rng fault_rng(spec.seed ^ 0xa12ea5eedULL);
        const std::uint64_t fault_at =
            1 + fault_rng.nextBounded(total_log + 20);

        Shadow sh;
        {
            runner::SweepJournal::Options options;
            options.fail_after_log_bytes = fault_at;
            std::unique_ptr<runner::SweepJournal> journal =
                runner::SweepJournal::open(crash_dir, options);
            runScript(journal.get(), crash_log,
                      util::Rng(spec.program_seed), &sh);
        } // no shutdown path: the destructor persists nothing extra

        {
            std::unique_ptr<runner::SweepJournal> recovered =
                runner::SweepJournal::open(crash_dir);
            result = verifyRecovered(*recovered, crash_log, sh, fault_at);
        }

        // Every third trial also proves the end-to-end warm-restart
        // byte-identity through the sweep journal.
        if (!result.violated && spec.index % 3 == 0)
            result = runSweepResumeCheck(spec, sweep_dir);
    } catch (const std::exception &e) {
        result = journalDivergence("arena_exception", e.what());
    }

    fs::remove_all(dry_dir, ec);
    fs::remove_all(crash_dir, ec);
    fs::remove_all(sweep_dir, ec);
    return result;
}

} // namespace inc::check
