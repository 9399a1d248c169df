#include "fleet/worker.h"

#include <atomic>
#include <csignal>
#include <memory>
#include <mutex>

#include <unistd.h>

#include "fleet/campaign.h"
#include "fleet/protocol.h"
#include "fleet/socket.h"
#include "obs/fleet_trace.h"
#include "runner/journal.h"
#include "runner/shard.h"
#include "util/logging.h"

namespace inc::fleet
{

namespace
{

/** Pending-span ring bound: every delivered job flushes the ring in its
 *  PROGRESS frame, so a batch holds a couple of events; the bound keeps
 *  memory bounded regardless. */
constexpr std::size_t kSpanRingCapacity = 4096;

/** Sweep threads per worker process: a fleet scales by worker count. */
constexpr int kWorkerThreads = 1;

/** "sobel x profile2" — the PROGRESS label and job-span name. */
std::string
jobLabel(const runner::JobSpec &spec)
{
    return spec.kernel + " x " + spec.trace_name;
}

/** One shard execution: journal-backed, range-restricted, streaming. */
void
runShard(const runner::SweepSpec &spec, const std::string &fingerprint,
         std::size_t num_jobs, const runner::ShardRange &shard,
         const WorkerOptions &options, int fd,
         std::atomic<std::size_t> *journaled)
{
    const std::string arena_dir =
        options.fleet_dir + "/shard-" + std::to_string(shard.id);
    std::unique_ptr<runner::SweepJournal> journal;
    try {
        journal = runner::SweepJournal::open(arena_dir);
    } catch (const std::exception &e) {
        const std::string msg = util::format(
            "cannot open shard arena '%s': %s", arena_dir.c_str(),
            e.what());
        writeAll(fd, encodeError(msg).data(), encodeError(msg).size());
        util::fatal("%s", msg.c_str());
    }
    if (journal->bound()) {
        if (journal->boundFingerprint() != fingerprint)
            util::fatal("shard arena '%s' belongs to a different "
                        "campaign (fingerprint %s, this campaign is "
                        "%s)",
                        arena_dir.c_str(),
                        journal->boundFingerprint().c_str(),
                        fingerprint.c_str());
    } else {
        journal->bind(fingerprint, num_jobs);
    }

    runner::SweepRunner runner(spec);
    runner.setJournal(journal.get());
    runner.setJobRange(shard.begin, shard.end);

    // Stream every delivery (fresh or journal-replayed) immediately:
    // the coordinator folds by job index, so order does not matter,
    // and anything sent before a crash survives the crash.
    std::mutex send_mutex;
    runner.setDeliveryHook([fd, &send_mutex](
                               const runner::JobResult &result) {
        const std::string frame = encodeResult(result);
        std::lock_guard<std::mutex> lock(send_mutex);
        if (!writeAll(fd, frame.data(), frame.size()))
            util::fatal("fleet worker: coordinator connection lost");
    });

    // Live telemetry plane: cumulative shard metrics snapshot (merged
    // in delivery order — a prefix-consistent approximation of the
    // final job-index-order fold; see DESIGN.md §16), completed trace
    // spans stamped with this process's real pid on the shared wall
    // clock, and a PROGRESS frame per delivered job. Everything here is
    // send-only: the result plane never reads it.
    const long pid = static_cast<long>(::getpid());
    obs::MetricsRegistry live_metrics;
    obs::SpanBatch spans(kSpanRingCapacity);
    const double shard_start_us = obs::wallClockUs();
    runner.setProgressHook([&](const runner::JobResult &result,
                               std::size_t done, std::size_t total) {
        std::lock_guard<std::mutex> lock(send_mutex);
        if (!result.metrics.empty())
            live_metrics.merge(result.metrics);
        const double now_us = obs::wallClockUs();
        obs::FleetSpanEvent job_span;
        job_span.phase = 'X';
        job_span.pid = pid;
        job_span.tid = 1; // per-job track
        job_span.name = jobLabel(result.spec);
        job_span.dur_us = result.wall_ms * 1000.0;
        job_span.ts_us = now_us - job_span.dur_us;
        spans.add(std::move(job_span));
        if (result.ok) {
            // Backup/restore burst series: one sample per job, so the
            // merged timeline shows where NVM traffic concentrated.
            obs::FleetSpanEvent backups;
            backups.phase = 'C';
            backups.pid = pid;
            backups.tid = 2;
            backups.name = "backups";
            backups.ts_us = now_us;
            backups.value =
                static_cast<double>(result.result.backups);
            spans.add(std::move(backups));
            obs::FleetSpanEvent restores = backups;
            restores.name = "restores";
            restores.value =
                static_cast<double>(result.result.restores);
            spans.add(std::move(restores));
        }
        ProgressUpdate update;
        update.shard_id = shard.id;
        update.jobs_done = done;
        update.jobs_assigned = total;
        update.label = jobLabel(result.spec);
        if (!live_metrics.empty())
            update.metrics_json = live_metrics.toJson();
        if (!spans.empty()) {
            update.spans_json = spans.toJson();
            spans.take(); // sent: reset the pending ring
        }
        const std::string frame = encodeProgress(update);
        if (!writeAll(fd, frame.data(), frame.size()))
            util::fatal("fleet worker: coordinator connection lost");
    });

    if (options.kill_after > 0) {
        const std::size_t kill_after = options.kill_after;
        runner.setRecordHook(
            [journaled, kill_after](std::size_t) {
                if (journaled->fetch_add(1) + 1 >= kill_after)
                    std::raise(SIGKILL);
            });
    }

    runner.run();

    {
        // Closing frame: the shard-lifecycle span (it only completes
        // here) plus the final snapshot, so the coordinator's live
        // view of a finished shard is its complete prefix.
        const double now_us = obs::wallClockUs();
        obs::FleetSpanEvent shard_span;
        shard_span.phase = 'X';
        shard_span.pid = pid;
        shard_span.tid = 0; // shard-lifecycle track
        shard_span.name = "shard " + std::to_string(shard.id);
        shard_span.ts_us = shard_start_us;
        shard_span.dur_us = now_us - shard_start_us;
        std::lock_guard<std::mutex> lock(send_mutex);
        spans.add(std::move(shard_span));
        ProgressUpdate update;
        update.shard_id = shard.id;
        update.jobs_done = shard.end - shard.begin;
        update.jobs_assigned = shard.end - shard.begin;
        update.label = "shard " + std::to_string(shard.id) + " done";
        if (!live_metrics.empty())
            update.metrics_json = live_metrics.toJson();
        update.spans_json = spans.toJson();
        spans.take();
        const std::string frame = encodeProgress(update);
        if (!writeAll(fd, frame.data(), frame.size()))
            util::fatal("fleet worker: coordinator connection lost");
    }

    const std::string done = encodeDone(shard.id);
    if (!writeAll(fd, done.data(), done.size()))
        util::fatal("fleet worker: coordinator connection lost");
}

} // namespace

int
runWorker(const WorkerOptions &options)
{
    CampaignSpec campaign;
    std::string error;
    if (!loadCampaignFile(options.campaign_path, &campaign, &error))
        util::fatal("%s", error.c_str());

    runner::SweepSpec spec =
        buildSweepSpec(campaign, options.collect_metrics);
    spec.jobs = kWorkerThreads;
    const std::vector<runner::JobSpec> jobs = runner::expandSweep(spec);
    const std::string fingerprint = runner::SweepJournal::fingerprint(
        spec, jobs,
        campaignFingerprintExtra(campaign, options.collect_metrics));

    const int fd = connectUnix(options.socket_path, &error);
    if (fd < 0)
        util::fatal("cannot connect to fleet socket '%s': %s",
                    options.socket_path.c_str(), error.c_str());

    const std::string hello =
        encodeHello(fingerprint, static_cast<long>(::getpid()));
    if (!writeAll(fd, hello.data(), hello.size()))
        util::fatal("fleet worker: coordinator connection lost");

    // Counts journaled jobs across all shards this incarnation runs,
    // so --kill-after fires exactly once per worker process.
    std::atomic<std::size_t> journaled{0};

    MessageReader reader;
    char buffer[64 * 1024];
    while (true) {
        Message message;
        bool have = reader.next(&message, &error);
        if (!have && !error.empty())
            util::fatal("fleet worker: %s", error.c_str());
        if (!have) {
            const long n = readSome(fd, buffer, sizeof(buffer));
            if (n == 0) {
                // Coordinator closed the socket: campaign over (or
                // coordinator died) — either way, nothing left to do.
                ::close(fd);
                return 0;
            }
            if (n < 0)
                util::fatal("fleet worker: socket read failed");
            reader.feed(buffer, static_cast<std::size_t>(n));
            continue;
        }
        const std::string kind = messageKind(message.line);
        if (kind == "EXIT") {
            ::close(fd);
            return 0;
        }
        if (kind == "SHARD") {
            runner::ShardRange shard;
            if (!parseShard(message.line, &shard) ||
                shard.end > jobs.size())
                util::fatal("fleet worker: bad shard assignment '%s'",
                            message.line.c_str());
            runShard(spec, fingerprint, jobs.size(), shard, options,
                     fd, &journaled);
            continue;
        }
        util::fatal("fleet worker: unexpected message '%s'",
                    message.line.c_str());
    }
}

} // namespace inc::fleet
