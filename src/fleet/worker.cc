#include "fleet/worker.h"

#include <atomic>
#include <csignal>
#include <memory>
#include <mutex>

#include <unistd.h>

#include "fleet/campaign.h"
#include "fleet/protocol.h"
#include "fleet/socket.h"
#include "runner/journal.h"
#include "runner/shard.h"
#include "util/logging.h"

namespace inc::fleet
{

namespace
{

/** Sweep threads per worker process: a fleet scales by worker count. */
constexpr int kWorkerThreads = 1;

/**
 * Report a shard this worker cannot run, then die. The coordinator
 * answers ERROR by stopping the whole fleet; a bare exit would look
 * like a crash and be reassigned until the retry budget ran out.
 */
[[noreturn]] void
failShard(int fd, const std::string &message)
{
    const std::string frame = encodeError(message);
    writeAll(fd, frame.data(), frame.size());
    util::fatal("%s", message.c_str());
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
        failShard(fd, util::format("cannot open shard arena '%s': %s",
                                   arena_dir.c_str(), e.what()));
    }
    if (journal->bound()) {
        if (journal->boundFingerprint() != fingerprint)
            failShard(fd,
                      util::format("shard arena '%s' belongs to a "
                                   "different campaign (fingerprint "
                                   "%s, this campaign is %s)",
                                   arena_dir.c_str(),
                                   journal->boundFingerprint().c_str(),
                                   fingerprint.c_str()));
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

    if (options.kill_after > 0) {
        const std::size_t kill_after = options.kill_after;
        runner.setRecordHook(
            [journaled, kill_after](std::size_t) {
                if (journaled->fetch_add(1) + 1 >= kill_after)
                    std::raise(SIGKILL);
            });
    }

    runner.run();

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
