#include "check/fleet_trial.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

#include "fleet/folder.h"
#include "fleet/protocol.h"
#include "runner/journal.h"
#include "runner/shard.h"
#include "runner/sweep.h"
#include "sim/result_io.h"
#include "trace/trace_generator.h"
#include "util/rng.h"

namespace inc::check
{

namespace
{

namespace fs = std::filesystem;

Divergence
fleetDivergence(const std::string &invariant, const std::string &detail)
{
    Divergence d;
    d.violated = true;
    d.invariant = invariant;
    d.detail = detail;
    return d;
}

std::size_t
firstDiff(const std::string &a, const std::string &b)
{
    std::size_t byte = 0;
    while (byte < std::min(a.size(), b.size()) && a[byte] == b[byte])
        ++byte;
    return byte;
}

/** Scratch directory unique to this (process, trial). */
std::string
trialDir(const TrialSpec &spec)
{
    std::ostringstream name;
    name << "inc-fleet-fuzz-" << ::getpid() << "-" << spec.seed << "-"
         << spec.index;
    return (fs::temp_directory_path() / name.str()).string();
}

/** The fuzzed mini-campaign: grid shape, metrics collection and the
 *  optional injected failure are all drawn from the trial stream. */
struct MiniCampaign
{
    runner::SweepSpec sweep;
    bool inject_failure = false;
    std::size_t victim = 0;
};

MiniCampaign
buildCampaign(const TrialSpec &spec, util::Rng &t)
{
    MiniCampaign c;
    runner::SweepSpec &sw = c.sweep;
    sw.kernels = t.nextBounded(2) == 0
                     ? std::vector<std::string>{"sobel"}
                     : std::vector<std::string>{"sobel", "median"};
    trace::TraceGenerator gen(trace::paperProfile(spec.profile),
                              spec.seed);
    sw.traces = {gen.generate(1200)};
    const std::uint64_t seed = spec.program_seed | 1;
    sw.variants = {
        runner::ConfigVariant{"base",
                              [seed](const std::string &) {
                                  sim::SimConfig cfg;
                                  cfg.seed = seed;
                                  return cfg;
                              }},
    };
    if (t.nextBounded(2) == 0) {
        sw.variants.push_back(runner::ConfigVariant{
            "alt", [seed](const std::string &) {
                sim::SimConfig cfg;
                cfg.seed = seed + 1;
                cfg.bits.mode = approx::ApproxMode::dynamic;
                cfg.bits.min_bits = 4;
                return cfg;
            }});
    }
    sw.master_seed = spec.seed;
    sw.jobs = 1;
    sw.collect_metrics = t.nextBounded(4) != 0;

    const std::size_t num_jobs =
        sw.kernels.size() * sw.traces.size() * sw.variants.size();
    c.inject_failure = t.nextBounded(4) == 0;
    c.victim = t.nextBounded(num_jobs);
    return c;
}

std::unique_ptr<runner::SweepRunner>
makeRunner(const MiniCampaign &campaign)
{
    if (!campaign.inject_failure)
        return std::make_unique<runner::SweepRunner>(campaign.sweep);
    const std::size_t victim = campaign.victim;
    runner::SweepRunner::JobFn body =
        [victim](const runner::JobSpec &job,
                 const trace::PowerTrace &trace,
                 util::Rng &rng) -> sim::SimResult {
        if (job.index == victim)
            throw std::runtime_error("injected fleet failure");
        return runner::SweepRunner::simJob(job, trace, rng);
    };
    return std::make_unique<runner::SweepRunner>(campaign.sweep, body);
}

/** Run @p shard's jobs of @p jobs and return one encoded RESULT frame
 *  per job, in delivery order. */
std::vector<std::string>
runShardFrames(const MiniCampaign &campaign,
               const std::vector<runner::JobSpec> &jobs,
               const runner::ShardRange &shard)
{
    std::vector<std::string> frames;
    makeRunner(campaign)->runJobs(
        std::span(jobs).subspan(shard.begin, shard.size()),
        [&frames](runner::JobResult jr) {
            frames.push_back(fleet::encodeResult(jr));
        });
    return frames;
}

/** The coordinator's merge path, minus the sockets: interleave the
 *  shards' frame streams in a fuzzed order, re-fragment into fuzzed
 *  chunk sizes through a MessageReader, decode, fold into @p folder. */
Divergence
foldFrames(const std::vector<std::vector<std::string>> &shard_frames,
           fleet::ResultFolder &folder, util::Rng &t)
{
    std::string stream;
    std::vector<std::size_t> cursor(shard_frames.size(), 0);
    while (true) {
        std::vector<std::size_t> live;
        for (std::size_t s = 0; s < shard_frames.size(); ++s) {
            if (cursor[s] < shard_frames[s].size())
                live.push_back(s);
        }
        if (live.empty())
            break;
        const std::size_t s = live[t.nextBounded(live.size())];
        stream += shard_frames[s][cursor[s]++];
    }

    fleet::MessageReader reader;
    std::size_t offset = 0;
    while (true) {
        while (true) {
            fleet::Message message;
            std::string error;
            if (!reader.next(&message, &error)) {
                if (!error.empty())
                    return fleetDivergence("fleet_frame", error);
                break;
            }
            fleet::DecodedResult decoded;
            std::string error2;
            if (!fleet::decodeResult(message, &decoded, &error2) ||
                !folder.fold(decoded, &error2))
                return fleetDivergence("fleet_fold", error2);
        }
        if (offset >= stream.size())
            break;
        const std::size_t chunk = std::min(
            stream.size() - offset,
            static_cast<std::size_t>(1 + t.nextBounded(97)));
        reader.feed(stream.data() + offset, chunk);
        offset += chunk;
    }
    return {};
}

/** Byte-compare the folded report against the un-sharded oracle on
 *  the fleet determinism surface. */
Divergence
compareToOracle(const runner::SweepReport &golden,
                const runner::SweepReport &folded)
{
    if (golden.results.size() != folded.results.size())
        return fleetDivergence("fleet_result",
                               "folded report has " +
                                   std::to_string(folded.results.size()) +
                                   " jobs, oracle has " +
                                   std::to_string(golden.results.size()));
    for (std::size_t i = 0; i < golden.results.size(); ++i) {
        const runner::JobResult &want = golden.results[i];
        const runner::JobResult &got = folded.results[i];
        if (want.ok != got.ok || want.attempts != got.attempts ||
            want.error != got.error)
            return fleetDivergence(
                "fleet_result",
                "job " + std::to_string(i) +
                    " status differs from oracle (ok " +
                    std::to_string(want.ok) + "/" +
                    std::to_string(got.ok) + ", attempts " +
                    std::to_string(want.attempts) + "/" +
                    std::to_string(got.attempts) + ")");
        if (!want.ok)
            continue;
        const std::string want_text =
            sim::serializeResult(want.result);
        const std::string got_text = sim::serializeResult(got.result);
        if (want_text != got_text) {
            Divergence d = fleetDivergence(
                "fleet_result",
                "job " + std::to_string(i) +
                    " result differs from oracle at byte " +
                    std::to_string(firstDiff(want_text, got_text)));
            d.byte = firstDiff(want_text, got_text);
            return d;
        }
    }
    const std::string want_merged = golden.mergedMetrics().toJson();
    const std::string got_merged = folded.mergedMetrics().toJson();
    if (want_merged != got_merged) {
        Divergence d = fleetDivergence(
            "fleet_metrics",
            "folded merged metrics differ from oracle at byte " +
                std::to_string(firstDiff(want_merged, got_merged)));
        d.byte = firstDiff(want_merged, got_merged);
        return d;
    }
    return {};
}

} // namespace

Divergence
runFleetMergeTrial(const TrialSpec &spec)
{
    const std::string dir = trialDir(spec);
    std::error_code ec;
    fs::remove_all(dir, ec);

    Divergence result;
    try {
        util::Rng t(spec.seed ^ 0xf1ee7ULL);
        const MiniCampaign campaign = buildCampaign(spec, t);

        const runner::SweepReport golden =
            makeRunner(campaign)->run();

        const std::vector<runner::JobSpec> jobs =
            runner::expandSweep(campaign.sweep);
        const std::vector<runner::ShardRange> plan =
            runner::planShards(jobs.size(), 2);

        std::vector<std::vector<std::string>> shard_frames;
        for (const runner::ShardRange &shard : plan)
            shard_frames.push_back(runShardFrames(campaign, jobs, shard));

        // Every third trial is the coordinator's restart: shard 0 is
        // folded into a journal, which a fresh folder reopens; it must
        // hold shard 0's ok jobs, and the frames of the rest follow.
        std::unique_ptr<runner::SweepJournal> journal;
        fleet::ResultFolder folder(jobs);
        std::string error;
        if (spec.index % 3 == 0) {
            const std::string fp = runner::SweepJournal::fingerprint(
                campaign.sweep, jobs, "fleet-fuzz");
            {
                const auto first_journal = runner::SweepJournal::open(dir);
                fleet::ResultFolder first(jobs);
                result = first.keepJournal(first_journal.get(), fp, &error)
                             ? foldFrames({shard_frames[0]}, first, t)
                             : fleetDivergence("fleet_journal", error);
            }
            journal = runner::SweepJournal::open(dir);
            if (!result.violated &&
                !folder.keepJournal(journal.get(), fp, &error))
                result = fleetDivergence("fleet_journal", error);
            std::size_t ok_jobs = 0;
            for (std::size_t i = plan[0].begin; i < plan[0].end; ++i)
                ok_jobs += golden.results[i].ok ? 1 : 0;
            if (!result.violated && folder.filledCount() != ok_jobs)
                result = fleetDivergence(
                    "fleet_journal",
                    "the reopened journal holds " +
                        std::to_string(folder.filledCount()) +
                        " jobs of shard 0, which has " +
                        std::to_string(ok_jobs) + " ok ones");
            std::erase_if(shard_frames[0], [&folder](const std::string &f) {
                std::size_t index = 0;
                return std::sscanf(f.c_str(), "RESULT %zu", &index) == 1 &&
                       folder.rangeComplete(index, index + 1);
            });
        }
        if (!result.violated)
            result = foldFrames(shard_frames, folder, t);
        if (!result.violated && !folder.complete())
            result = fleetDivergence(
                "fleet_fold", "only " +
                                  std::to_string(folder.filledCount()) +
                                  " of " + std::to_string(jobs.size()) +
                                  " jobs folded");
        if (!result.violated)
            result = compareToOracle(golden, folder.takeReport(0.0, 1));
    } catch (const std::exception &e) {
        result = fleetDivergence("fleet_exception", e.what());
    }

    fs::remove_all(dir, ec);
    return result;
}

} // namespace inc::check
