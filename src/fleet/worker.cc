#include "fleet/worker.h"

#include <csignal>
#include <span>
#include <utility>

#include <unistd.h>

#include "fleet/campaign.h"
#include "fleet/protocol.h"
#include "fleet/socket.h"
#include "runner/shard.h"
#include "util/logging.h"

namespace inc::fleet
{

namespace
{

/** Sweep threads per worker process: a fleet scales by worker count. */
constexpr int kWorkerThreads = 1;

/** Run one shard, streaming its results. @p sent counts this process's
 *  RESULT frames across shards, for --kill-after. */
void
runShard(runner::SweepRunner &runner,
         const std::vector<runner::JobSpec> &jobs,
         const runner::ShardRange &shard, const WorkerOptions &options,
         int fd, std::size_t *sent)
{
    // Stream every result immediately: the coordinator folds by job
    // index, so order does not matter, and anything sent before a
    // crash survives the crash.
    runner.runJobs(std::span(jobs).subspan(shard.begin, shard.size()),
                   [fd, &options, sent](runner::JobResult result) {
                       const std::string frame = encodeResult(result);
                       if (!writeAll(fd, frame.data(), frame.size()))
                           util::fatal("fleet worker: coordinator "
                                       "connection lost");
                       if (options.kill_after > 0 &&
                           ++*sent >= options.kill_after)
                           std::raise(SIGKILL);
                   });

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
    const std::string fingerprint =
        campaignFingerprint(campaign, spec, jobs);
    runner::SweepRunner runner(std::move(spec));

    const int fd = connectUnix(options.socket_path, &error);
    if (fd < 0)
        util::fatal("cannot connect to fleet socket '%s': %s",
                    options.socket_path.c_str(), error.c_str());

    const std::string hello =
        encodeHello(fingerprint, static_cast<long>(::getpid()));
    if (!writeAll(fd, hello.data(), hello.size()))
        util::fatal("fleet worker: coordinator connection lost");

    std::size_t sent = 0;

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
            runShard(runner, jobs, shard, options, fd, &sent);
            continue;
        }
        util::fatal("fleet worker: unexpected message '%s'",
                    message.line.c_str());
    }
}

} // namespace inc::fleet
