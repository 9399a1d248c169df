#include "fleet/coordinator.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <deque>
#include <filesystem>
#include <memory>
#include <vector>

#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "fleet/campaign.h"
#include "fleet/folder.h"
#include "fleet/protocol.h"
#include "fleet/socket.h"
#include "obs/event_tracer.h"
#include "obs/json.h"
#include "obs/schema.h"
#include "runner/journal.h"
#include "runner/shard.h"
#include "util/fs.h"
#include "util/logging.h"

namespace inc::fleet
{

namespace
{

using Clock = std::chrono::steady_clock;

/** Shards planned per worker, so a lost worker costs a small share. */
constexpr std::size_t kShardsPerWorker = 4;
/** Reassignments a shard may take after losing its worker; one more
 *  loss is fatal. */
constexpr int kMaxShardRetries = 3;

/** Thread tracks of a worker's row in the fleet trace. The
 *  coordinator's own row puts its instants and the campaign span on
 *  track 0. */
constexpr std::uint32_t kShardTrack = 0; ///< "shard N" spans
constexpr std::uint32_t kJobTrack = 1;   ///< "kernel x trace" spans
constexpr std::uint32_t kCountTrack = 2; ///< backups/restores samples

/** "sobel x Power Profile 2": a job's status label and span name. */
std::string
jobLabel(const runner::JobSpec &spec)
{
    return spec.kernel + " x " + spec.trace_name;
}

/** One accepted socket connection (unclaimed until its HELLO). */
struct Connection
{
    int fd = -1;
    long pid = -1; ///< claimed worker pid, -1 before HELLO
    MessageReader reader;
    Clock::time_point last_heard;
};

/** One spawned worker process (possibly not yet connected). */
struct WorkerProc
{
    long pid = -1;
    int generation = 0;
    Clock::time_point spawned_at;
    int shard = -1; ///< assigned shard id, -1 when idle
    Connection *conn = nullptr;
    bool alive = true;
    bool greeted = false;

    // Live plane, kept from the frames above. Display and trace state
    // only — nothing on the result path reads these.
    std::size_t shard_done = 0; ///< RESULT frames since the SHARD
    std::size_t shard_assigned = 0;
    std::string last_label;        ///< the last RESULT's job
    Clock::time_point shard_start; ///< when its SHARD was sent
    /** The later of shard_start and the last RESULT: the next job
     *  span starts here. */
    Clock::time_point job_start;
};

/** The whole coordinator state, so helpers share it without globals. */
class Coordinator
{
  public:
    explicit Coordinator(const ServeOptions &options);
    FleetOutcome run();

  private:
    void openJournal();
    void staffFleet(bool first_generation);
    void spawnWorker(bool first_generation);
    void dispatchShards();
    void assignShard(WorkerProc &worker, std::size_t shard_id);
    /** A dispatched shard is done: its DONE arrived, or its worker
     *  was lost after sending every result. */
    void finishShard();
    void handleMessage(Connection &conn, const Message &message);
    void handleHello(Connection &conn, const Message &message);
    void handleResult(WorkerProc &worker, const Message &message);
    void handleDone(WorkerProc &worker, const Message &message);
    void readConnection(Connection *conn);
    void dropConnection(Connection *conn, const char *why);
    void workerLost(WorkerProc &worker, const char *why);
    void reapChildren();
    double shardSilence(const WorkerProc &worker,
                        Clock::time_point now) const;
    void checkHeartbeats();
    void shutdownFleet();
    WorkerProc *findWorker(long pid);

    // --- live telemetry plane (DESIGN.md §16) ------------------------
    /** Microseconds from campaign start to @p t: the trace's axis. */
    double traceUs(Clock::time_point t) const;
    void traceInstant(const std::string &name);
    void traceSpan(long pid, std::uint32_t tid, std::string name,
                   Clock::time_point start, Clock::time_point end);
    void acceptStatusConnections();
    void broadcastStatus(bool force);
    void closeStatusPlane();
    std::string buildStatusJson() const;

    const ServeOptions &options_;
    CampaignSpec campaign_;
    runner::SweepSpec spec_;
    std::vector<runner::JobSpec> jobs_;
    std::string fingerprint_;
    std::string socket_path_;
    int listen_fd_ = -1;

    std::vector<runner::ShardRange> plan_;
    std::deque<std::size_t> pending_;
    std::vector<int> dispatch_count_;
    std::size_t completed_count_ = 0;

    std::vector<std::unique_ptr<Connection>> connections_;
    /** deque: spawnWorker() appends while references to existing
     *  elements are live further up the stack. */
    std::deque<WorkerProc> workers_;
    int next_generation_ = 0;
    int startup_failures_ = 0;

    /** The fleet dir's journal; outlives the folder recording into it. */
    std::unique_ptr<runner::SweepJournal> journal_;
    std::unique_ptr<ResultFolder> folder_;
    /** Jobs the journal held when this serve started; the status
     *  plane's rate counts only the jobs folded since. */
    std::size_t journaled_count_ = 0;
    obs::MetricsRegistry metrics_;
    double worker_wall_ms_ = 0.0;

    // --- live telemetry plane ----------------------------------------
    long self_pid_ = 0;
    Clock::time_point campaign_start_;
    int status_listen_fd_ = -1;
    std::vector<int> status_fds_;
    Clock::time_point last_status_write_;
    bool status_written_once_ = false;
    /** Every freshly folded ok job's metrics, merged in arrival order. */
    obs::MetricsRegistry live_metrics_;
    /** The fleet trace; null without --trace-out. */
    std::unique_ptr<obs::EventTracer> trace_;
};

Coordinator::Coordinator(const ServeOptions &options)
    : options_(options)
{
    std::string error;
    if (!loadCampaignFile(options_.campaign_path, &campaign_, &error))
        util::fatal("%s", error.c_str());

    spec_ = buildSweepSpec(campaign_, options_.collect_metrics);
    jobs_ = runner::expandSweep(spec_);
    fingerprint_ = campaignFingerprint(campaign_, spec_, jobs_);

    if (options_.workers < 1)
        util::fatal("fleet: --workers must be >= 1");

    openJournal();

    socket_path_ = options_.socket_path.empty()
                       ? options_.fleet_dir + "/fleet.sock"
                       : options_.socket_path;

    plan_ = runner::planShards(
        jobs_.size(),
        static_cast<std::size_t>(options_.workers) * kShardsPerWorker);
    dispatch_count_.assign(plan_.size(), 0);
    for (const runner::ShardRange &shard : plan_) {
        // A shard the journal holds in full is never dispatched.
        if (folder_->rangeComplete(shard.begin, shard.end))
            ++completed_count_;
        else
            pending_.push_back(shard.id);
    }
    metrics_.gauge(obs::kFleetShardsPlanned).value =
        static_cast<double>(plan_.size());
    // Every counter reads 0 until it moves: a campaign the journal
    // finished spawns no worker and dispatches no shard.
    for (const char *name :
         {obs::kFleetShardsDispatched, obs::kFleetShardsCompleted,
          obs::kFleetShardsReassigned, obs::kFleetShardsRetried,
          obs::kFleetWorkersSpawned, obs::kFleetWorkersLost,
          obs::kFleetMergeBytes})
        metrics_.counter(name);
}

void
Coordinator::openJournal()
{
    const std::string &dir = options_.fleet_dir;
    if (!util::ensureDir(dir))
        util::fatal("cannot create fleet dir '%s'", dir.c_str());

    // The journal is the fleet dir's only state. Stale sockets (a killed
    // coordinator's) go once the journal is accepted; anything else,
    // such as an older build's journal layout, is refused by name.
    std::vector<std::filesystem::path> sockets;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        if (entry.is_socket())
            sockets.push_back(entry.path());
        else if (entry.path().filename() != "arena.log")
            util::fatal("fleet dir '%s' holds '%s', which is not part of "
                        "a fleet journal (a layout of an older build?); "
                        "serve the campaign into a fresh directory",
                        dir.c_str(), entry.path().filename().c_str());
    }

    try {
        journal_ = runner::SweepJournal::open(dir);
    } catch (const std::exception &e) {
        util::fatal("cannot open the journal of fleet dir '%s': %s",
                    dir.c_str(), e.what());
    }
    const bool resuming = journal_->bound();
    folder_ = std::make_unique<ResultFolder>(jobs_);
    std::string error;
    if (!folder_->keepJournal(journal_.get(), fingerprint_, &error))
        util::fatal("fleet dir '%s' %s; use a fresh directory or the "
                    "original campaign file/flags",
                    dir.c_str(), error.c_str());
    journaled_count_ = folder_->filledCount();
    for (const std::filesystem::path &socket : sockets)
        ::unlink(socket.c_str());
    if (resuming)
        std::fprintf(stderr,
                     "fleet: resuming campaign %s in '%s' (%zu of %zu "
                     "jobs journaled)\n",
                     fingerprint_.c_str(), dir.c_str(),
                     folder_->filledCount(), jobs_.size());
    // The live view starts from the journaled jobs, so its final frame
    // still equals the merged metrics.
    for (std::size_t i = 0; i < jobs_.size(); ++i)
        if (folder_->rangeComplete(i, i + 1) && folder_->result(i).ok)
            live_metrics_.merge(folder_->result(i).metrics);
}

WorkerProc *
Coordinator::findWorker(long pid)
{
    for (WorkerProc &w : workers_) {
        if (w.pid == pid)
            return &w;
    }
    return nullptr;
}

void
Coordinator::staffFleet(bool first_generation)
{
    // One worker per shard left, at most --workers: a finished campaign
    // spawns none, and a lost worker is replaced only while one is due.
    std::size_t alive = 0;
    for (const WorkerProc &w : workers_)
        alive += w.alive ? 1 : 0;
    const std::size_t wanted =
        std::min(static_cast<std::size_t>(options_.workers),
                 plan_.size() - completed_count_);
    for (; alive < wanted; ++alive)
        spawnWorker(first_generation);
}

void
Coordinator::spawnWorker(bool first_generation)
{
    std::vector<std::string> argv_strings = {
        options_.nvpsim_path,   "work",
        "--socket",             socket_path_,
        "--campaign",           options_.campaign_path,
        "--collect-metrics",    options_.collect_metrics ? "1" : "0"};
    if (first_generation && options_.kill_worker_after > 0) {
        argv_strings.push_back("--kill-after");
        argv_strings.push_back(
            std::to_string(options_.kill_worker_after));
    }
    std::vector<char *> argv;
    argv.reserve(argv_strings.size() + 1);
    for (std::string &s : argv_strings)
        argv.push_back(s.data());
    argv.push_back(nullptr);

    const pid_t parent = ::getpid();
    const pid_t pid = ::fork();
    if (pid < 0)
        util::fatal("fleet: fork() failed");
    if (pid == 0) {
        // A worker keeps no state, so it has nothing to finish once
        // the coordinator is gone: it dies with it.
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (::getppid() != parent)
            ::_exit(1);
        ::execv(options_.nvpsim_path.c_str(), argv.data());
        // Exec failure: exit without running any parent atexit state.
        ::_exit(127);
    }
    WorkerProc worker;
    worker.pid = pid;
    worker.generation = next_generation_++;
    worker.spawned_at = Clock::now();
    workers_.push_back(worker);
    metrics_.counter(obs::kFleetWorkersSpawned).value += 1;
    traceInstant(util::format("spawn worker g%d (pid %ld)",
                              workers_.back().generation,
                              static_cast<long>(pid)));
}

void
Coordinator::assignShard(WorkerProc &worker, std::size_t shard_id)
{
    // Only the shard's not-yet-folded suffix runs: the jobs before it
    // are journaled or were streamed by a lost worker.
    runner::ShardRange shard = plan_[shard_id];
    shard.begin = folder_->firstUnfolded(shard.begin, shard.end);
    const std::string frame = encodeShard(shard);
    if (!writeAll(worker.conn->fd, frame.data(), frame.size())) {
        // The worker died between poll rounds: requeue the shard and
        // retire the connection now, so the dispatch loop does not
        // keep picking the same dead "idle" worker.
        pending_.push_front(shard_id);
        dropConnection(worker.conn, "write failed");
        return;
    }
    worker.shard = static_cast<int>(shard_id);
    worker.shard_done = 0;
    worker.shard_assigned = shard.size();
    worker.shard_start = Clock::now();
    worker.job_start = worker.shard_start;
    dispatch_count_[shard_id] += 1;
    metrics_.counter(obs::kFleetShardsDispatched).value += 1;
    if (dispatch_count_[shard_id] > 1)
        metrics_.counter(obs::kFleetShardsRetried).value += 1;
    traceInstant(util::format("assign shard %zu -> pid %ld", shard_id,
                              worker.pid));
}

void
Coordinator::finishShard()
{
    ++completed_count_;
    metrics_.counter(obs::kFleetShardsCompleted).value += 1;
}

void
Coordinator::dispatchShards()
{
    while (!pending_.empty()) {
        WorkerProc *idle = nullptr;
        for (WorkerProc &w : workers_) {
            if (w.alive && w.greeted && w.conn && w.shard < 0) {
                idle = &w;
                break;
            }
        }
        if (!idle)
            return;
        const std::size_t shard_id = pending_.front();
        pending_.pop_front();
        assignShard(*idle, shard_id);
    }
}

void
Coordinator::handleHello(Connection &conn, const Message &message)
{
    std::string fp;
    long pid = -1;
    if (!parseHello(message.line, &fp, &pid))
        util::fatal("fleet: malformed HELLO '%s'",
                    message.line.c_str());
    if (fp != fingerprint_)
        util::fatal("fleet: worker %ld derived campaign fingerprint "
                    "%s, coordinator derived %s — the campaign file "
                    "expanded differently (nondeterministic "
                    "expansion?)",
                    pid, fp.c_str(), fingerprint_.c_str());
    WorkerProc *worker = findWorker(pid);
    if (!worker || !worker->alive)
        util::fatal("fleet: HELLO from unknown worker pid %ld", pid);
    conn.pid = pid;
    worker->conn = &conn;
    worker->greeted = true;
    if (trace_)
        trace_->setProcessName(
            pid, util::format("nvpsim work g%d (pid %ld)",
                              worker->generation, pid));
    traceInstant(util::format("hello from pid %ld", pid));
}

void
Coordinator::handleResult(WorkerProc &worker, const Message &message)
{
    DecodedResult decoded;
    std::string error;
    const std::size_t folded_before = folder_->filledCount();
    if (!decodeResult(message, &decoded, &error) ||
        !folder_->fold(decoded, &error))
        util::fatal("fleet: %s", error.c_str());
    metrics_.counter(obs::kFleetMergeBytes).value +=
        message.payload.size();

    // Live plane. Every RESULT advances the worker's row and ends a job
    // span; a job folded for the first time (a re-run duplicate is not)
    // also joins the live metrics and the counter series.
    const auto now = Clock::now();
    const std::string label = jobLabel(jobs_[decoded.index]);
    ++worker.shard_done;
    worker.last_label = label;
    traceSpan(worker.pid, kJobTrack, label, worker.job_start, now);
    worker.job_start = now;
    if (folder_->filledCount() == folded_before)
        return;
    const runner::JobResult &result = folder_->result(decoded.index);
    if (!result.ok)
        return;
    live_metrics_.merge(result.metrics);
    if (trace_) {
        trace_->counter(worker.pid, kCountTrack, "backups", traceUs(now),
                        static_cast<double>(result.result.backups));
        trace_->counter(worker.pid, kCountTrack, "restores",
                        traceUs(now),
                        static_cast<double>(result.result.restores));
    }
}

void
Coordinator::handleDone(WorkerProc &worker, const Message &message)
{
    std::size_t shard_id = 0;
    if (!parseDone(message.line, &shard_id) || shard_id >= plan_.size())
        util::fatal("fleet: malformed DONE '%s'", message.line.c_str());
    if (worker.shard != static_cast<int>(shard_id))
        util::fatal("fleet: worker %ld finished shard %zu but was "
                    "assigned %d",
                    worker.pid, shard_id, worker.shard);
    const runner::ShardRange &shard = plan_[shard_id];
    if (!folder_->rangeComplete(shard.begin, shard.end))
        util::fatal("fleet: worker %ld reported shard %zu done with "
                    "results missing",
                    worker.pid, shard_id);
    worker.shard = -1;
    finishShard();
    traceSpan(worker.pid, kShardTrack,
              "shard " + std::to_string(shard_id), worker.shard_start,
              Clock::now());
}

void
Coordinator::handleMessage(Connection &conn, const Message &message)
{
    const std::string kind = messageKind(message.line);
    if (kind == "HELLO") {
        handleHello(conn, message);
        return;
    }
    WorkerProc *worker = conn.pid >= 0 ? findWorker(conn.pid) : nullptr;
    if (!worker)
        util::fatal("fleet: message '%s' from a connection that never "
                    "sent HELLO",
                    message.line.c_str());
    if (kind == "RESULT") {
        handleResult(*worker, message);
        return;
    }
    if (kind == "DONE") {
        handleDone(*worker, message);
        return;
    }
    util::fatal("fleet: unexpected message '%s' from worker %ld",
                message.line.c_str(), worker->pid);
}

void
Coordinator::workerLost(WorkerProc &worker, const char *why)
{
    worker.alive = false;
    worker.conn = nullptr;
    worker_wall_ms_ +=
        std::chrono::duration<double, std::milli>(Clock::now() -
                                                  worker.spawned_at)
            .count();
    metrics_.counter(obs::kFleetWorkersLost).value += 1;
    traceInstant(util::format("worker pid %ld lost: %s", worker.pid,
                              why));
    ::kill(static_cast<pid_t>(worker.pid), SIGKILL);
    int status = 0;
    ::waitpid(static_cast<pid_t>(worker.pid), &status, WNOHANG);
    if (worker.shard >= 0) {
        const auto shard_id = static_cast<std::size_t>(worker.shard);
        const runner::ShardRange &shard = plan_[shard_id];
        worker.shard = -1;
        const std::size_t resume_at =
            folder_->firstUnfolded(shard.begin, shard.end);
        if (resume_at == shard.end) {
            finishShard();
        } else {
            if (dispatch_count_[shard_id] > kMaxShardRetries)
                util::fatal("fleet: shard %zu lost its worker %d times "
                            "(last: %s); retry budget exhausted",
                            shard_id, dispatch_count_[shard_id], why);
            std::fprintf(stderr,
                         "fleet: worker %ld lost (%s); reassigning "
                         "shard %zu from job %zu (attempt %d)\n",
                         worker.pid, why, shard_id, resume_at,
                         dispatch_count_[shard_id] + 1);
            pending_.push_front(shard_id);
            metrics_.counter(obs::kFleetShardsReassigned).value += 1;
            traceInstant(util::format("reassign shard %zu", shard_id));
        }
    }
    staffFleet(false);
}

void
Coordinator::dropConnection(Connection *conn, const char *why)
{
    if (conn->fd >= 0)
        ::close(conn->fd);
    const long pid = conn->pid;
    connections_.erase(
        std::remove_if(connections_.begin(), connections_.end(),
                       [conn](const std::unique_ptr<Connection> &c) {
                           return c.get() == conn;
                       }),
        connections_.end());
    if (pid >= 0) {
        WorkerProc *worker = findWorker(pid);
        if (worker && worker->alive)
            workerLost(*worker, why);
    }
}

void
Coordinator::readConnection(Connection *conn)
{
    char buffer[64 * 1024];
    const long n = readSome(conn->fd, buffer, sizeof(buffer));
    if (n == -2)
        return; // spurious wakeup
    if (n <= 0) {
        dropConnection(conn, "connection closed");
        return;
    }
    conn->reader.feed(buffer, static_cast<std::size_t>(n));
    conn->last_heard = Clock::now();
    while (true) {
        Message message;
        std::string error;
        if (!conn->reader.next(&message, &error)) {
            if (!error.empty())
                util::fatal("fleet: %s", error.c_str());
            break;
        }
        handleMessage(*conn, message);
    }
}

void
Coordinator::reapChildren()
{
    while (true) {
        int status = 0;
        const pid_t pid = ::waitpid(-1, &status, WNOHANG);
        if (pid <= 0)
            return;
        WorkerProc *worker = findWorker(pid);
        if (!worker || !worker->alive)
            continue;
        if (!worker->greeted) {
            // Died before HELLO: exec failure or a worker-side fatal
            // (bad campaign, unreachable socket). Bounded respawns so
            // a systematic failure surfaces instead of looping.
            worker->alive = false;
            metrics_.counter(obs::kFleetWorkersLost).value += 1;
            ++startup_failures_;
            if (startup_failures_ > options_.workers * 2)
                util::fatal("fleet: workers keep dying before "
                            "connecting (%d startup failures); see "
                            "their stderr above",
                            startup_failures_);
            staffFleet(false);
        }
        // Greeted workers are handled by their connection's EOF,
        // which arrives with the process death.
    }
}

double
Coordinator::shardSilence(const WorkerProc &worker,
                          Clock::time_point now) const
{
    // The one heartbeat rule, behind the drop and "stale" alike: only a
    // worker that holds a shard owes frames.
    if (!worker.alive || !worker.conn || worker.shard < 0)
        return 0.0;
    return std::chrono::duration<double>(
               now - std::max(worker.conn->last_heard, worker.shard_start))
        .count();
}

void
Coordinator::checkHeartbeats()
{
    const auto now = Clock::now();
    const double timeout_s = options_.heartbeat_timeout_s;
    if (timeout_s <= 0)
        return;
    // Collect first: dropConnection mutates connections_ and workers_.
    std::vector<Connection *> stale;
    for (const WorkerProc &worker : workers_) {
        if (shardSilence(worker, now) > timeout_s)
            stale.push_back(worker.conn);
    }
    for (Connection *conn : stale)
        dropConnection(conn, "heartbeat timeout");
}

double
Coordinator::traceUs(Clock::time_point t) const
{
    return std::chrono::duration<double, std::micro>(t - campaign_start_)
        .count();
}

void
Coordinator::traceInstant(const std::string &name)
{
    if (trace_)
        trace_->instant(self_pid_, 0, name, traceUs(Clock::now()));
}

void
Coordinator::traceSpan(long pid, std::uint32_t tid, std::string name,
                       Clock::time_point start, Clock::time_point end)
{
    if (trace_)
        trace_->span(pid, tid, std::move(name), traceUs(start),
                     traceUs(end) - traceUs(start));
}

void
Coordinator::acceptStatusConnections()
{
    if (status_listen_fd_ < 0)
        return;
    while (true) {
        // Non-blocking fds: a status client that stops reading gets
        // dropped by a failed write instead of stalling the fleet.
        const int fd =
            ::accept4(status_listen_fd_, nullptr, nullptr,
                      SOCK_CLOEXEC | SOCK_NONBLOCK);
        if (fd < 0)
            return;
        metrics_.counter(obs::kFleetStatusRequests).value += 1;
        const std::string frame = encodeState(buildStatusJson());
        if (writeAll(fd, frame.data(), frame.size()))
            status_fds_.push_back(fd);
        else
            ::close(fd);
    }
}

void
Coordinator::broadcastStatus(bool force)
{
    if (status_fds_.empty())
        return;
    const auto now = Clock::now();
    if (!force && status_written_once_ &&
        std::chrono::duration<double>(now - last_status_write_)
                .count() < 0.2)
        return;
    last_status_write_ = now;
    status_written_once_ = true;
    const std::string frame = encodeState(buildStatusJson());
    std::vector<int> still_open;
    for (const int fd : status_fds_) {
        if (writeAll(fd, frame.data(), frame.size()))
            still_open.push_back(fd);
        else
            ::close(fd); // gone or stalled: the live plane is lossy
    }
    status_fds_.swap(still_open);
}

void
Coordinator::closeStatusPlane()
{
    // Final frame first: every attached watcher sees jobs_done ==
    // jobs_total before EOF, which is what `nvpsim status --watch`
    // (and the fleet status test) keys on.
    acceptStatusConnections();
    broadcastStatus(true);
    for (const int fd : status_fds_)
        ::close(fd);
    status_fds_.clear();
    if (status_listen_fd_ >= 0) {
        ::close(status_listen_fd_);
        status_listen_fd_ = -1;
        ::unlink(options_.status_socket.c_str());
    }
}

std::string
Coordinator::buildStatusJson() const
{
    const auto now = Clock::now();
    const double elapsed_s =
        std::chrono::duration<double>(now - campaign_start_).count();
    const std::size_t jobs_total = folder_->jobCount();
    const std::size_t jobs_done = folder_->filledCount();
    // A resumed campaign's journaled jobs ran before this serve did:
    // the rate, and the ETA from it, count only the jobs folded since.
    const std::size_t folded_now = jobs_done - journaled_count_;
    const double throughput =
        elapsed_s > 0.0 ? static_cast<double>(folded_now) / elapsed_s
                        : 0.0;
    const double eta_s =
        throughput > 0.0
            ? static_cast<double>(jobs_total - jobs_done) / throughput
            : -1.0;

    obs::JsonValue doc = obs::JsonValue::object();
    doc.set("schema", obs::JsonValue::of(
                          std::string("inc-fleet-status-v1")));
    doc.set("fingerprint", obs::JsonValue::of(fingerprint_));
    doc.set("jobs_total", obs::JsonValue::of(
                              static_cast<std::uint64_t>(jobs_total)));
    doc.set("jobs_done", obs::JsonValue::of(
                             static_cast<std::uint64_t>(jobs_done)));
    doc.set("shards_planned",
            obs::JsonValue::of(
                static_cast<std::uint64_t>(plan_.size())));
    doc.set("shards_completed",
            obs::JsonValue::of(
                static_cast<std::uint64_t>(completed_count_)));
    doc.set("elapsed_s", obs::JsonValue::of(elapsed_s));
    doc.set("throughput_jps", obs::JsonValue::of(throughput));
    doc.set("eta_s", obs::JsonValue::of(eta_s));

    obs::JsonValue workers = obs::JsonValue::array();
    for (const WorkerProc &w : workers_) {
        obs::JsonValue row = obs::JsonValue::object();
        row.set("pid",
                obs::JsonValue::of(static_cast<double>(w.pid)));
        row.set("generation",
                obs::JsonValue::of(
                    static_cast<std::uint64_t>(w.generation)));
        row.set("shard", obs::JsonValue::of(
                             static_cast<double>(w.shard)));
        row.set("shard_done",
                obs::JsonValue::of(
                    static_cast<std::uint64_t>(w.shard_done)));
        row.set("shard_assigned",
                obs::JsonValue::of(
                    static_cast<std::uint64_t>(w.shard_assigned)));
        row.set("job", obs::JsonValue::of(w.last_label));
        double age_s = -1.0;
        if (w.conn)
            age_s = std::chrono::duration<double>(
                        now - w.conn->last_heard)
                        .count();
        row.set("heartbeat_age_s", obs::JsonValue::of(age_s));
        const double timeout_s = options_.heartbeat_timeout_s;
        std::string health = "ok";
        if (!w.alive)
            health = "lost";
        else if (!w.greeted)
            health = "starting";
        else if (timeout_s > 0 && shardSilence(w, now) > 0.5 * timeout_s)
            health = "stale";
        row.set("health", obs::JsonValue::of(health));
        workers.push(std::move(row));
    }
    doc.set("workers", std::move(workers));

    // fleet.* scheduling counters/gauges, live (obs/schema.h).
    obs::JsonValue fleet = obs::JsonValue::object();
    for (const auto &[name, counter] : metrics_.counters())
        fleet.set(name, obs::JsonValue::of(counter.value));
    for (const auto &[name, gauge] : metrics_.gauges())
        fleet.set(name, obs::JsonValue::of(gauge.value));
    doc.set("fleet", std::move(fleet));

    // Live view: the folded jobs so far, merged in arrival order.
    // Counters and histograms are exact partial sums of the final
    // job-index-order merge; gauges may differ from it in the last
    // ulps (DESIGN.md §16).
    const obs::MetricsRegistry &live = live_metrics_;
    obs::JsonValue live_obj = obs::JsonValue::object();
    if (live.has(obs::kHistOutageSamples)) {
        const obs::Histogram &h =
            live.histograms().at(obs::kHistOutageSamples);
        // Samples are 0.1 ms trace ticks; report milliseconds like
        // the run report does.
        live_obj.set("outage_p50_ms",
                     obs::JsonValue::of(h.percentile(0.50) / 10.0));
        live_obj.set("outage_p95_ms",
                     obs::JsonValue::of(h.percentile(0.95) / 10.0));
        live_obj.set("outage_p99_ms",
                     obs::JsonValue::of(h.percentile(0.99) / 10.0));
    }
    live_obj.set("backups_committed",
                 obs::JsonValue::of(live.counterValue(
                     obs::kSimBackupsCommitted)));
    live_obj.set("restores",
                 obs::JsonValue::of(
                     live.counterValue(obs::kSimRestores)));
    doc.set("live", std::move(live_obj));

    return doc.dump();
}

void
Coordinator::shutdownFleet()
{
    const auto reap = [this](WorkerProc &worker) {
        int status = 0;
        ::waitpid(static_cast<pid_t>(worker.pid), &status, 0);
        worker.alive = false;
        worker_wall_ms_ +=
            std::chrono::duration<double, std::milli>(
                Clock::now() - worker.spawned_at)
                .count();
    };
    // A worker that never said HELLO holds no shard. The other workers
    // can finish every shard before a slow one even connects; stop and
    // reap it while the socket still exists, so it cannot die on a
    // vanished socket ("cannot connect", "connection lost") after the
    // campaign succeeded.
    for (WorkerProc &worker : workers_) {
        if (worker.alive && !worker.greeted) {
            ::kill(static_cast<pid_t>(worker.pid), SIGKILL);
            reap(worker);
        }
    }
    const std::string exit_frame = encodeExit();
    for (const auto &conn : connections_) {
        writeAll(conn->fd, exit_frame.data(), exit_frame.size());
        ::close(conn->fd);
    }
    connections_.clear();
    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
    }
    ::unlink(socket_path_.c_str());
    for (WorkerProc &worker : workers_) {
        if (worker.alive)
            reap(worker);
    }
}

FleetOutcome
Coordinator::run()
{
    const auto campaign_start = Clock::now();
    campaign_start_ = campaign_start;
    self_pid_ = static_cast<long>(::getpid());
    if (!options_.trace_out.empty()) {
        trace_ = std::make_unique<obs::EventTracer>();
        trace_->setProcessName(
            self_pid_,
            util::format("nvpsim serve (pid %ld)", self_pid_));
    }

    std::string error;
    listen_fd_ = listenUnix(socket_path_, &error);
    if (listen_fd_ < 0)
        util::fatal("fleet: cannot listen on '%s': %s",
                    socket_path_.c_str(), error.c_str());

    if (!options_.status_socket.empty()) {
        status_listen_fd_ =
            listenUnix(options_.status_socket, &error);
        if (status_listen_fd_ < 0)
            util::fatal("fleet: cannot listen on status socket '%s': "
                        "%s",
                        options_.status_socket.c_str(),
                        error.c_str());
        // Non-blocking: the event loop drains pending status
        // connections opportunistically every round.
        const int flags = ::fcntl(status_listen_fd_, F_GETFL, 0);
        ::fcntl(status_listen_fd_, F_SETFL, flags | O_NONBLOCK);
    }

    staffFleet(true);

    while (completed_count_ < plan_.size()) {
        dispatchShards();

        std::vector<pollfd> fds;
        fds.push_back({listen_fd_, POLLIN, 0});
        // Snapshot: readConnection may drop entries mid-iteration.
        std::vector<Connection *> polled;
        for (const auto &conn : connections_) {
            fds.push_back({conn->fd, POLLIN, 0});
            polled.push_back(conn.get());
        }
        const int ready = ::poll(fds.data(),
                                 static_cast<nfds_t>(fds.size()), 200);
        if (ready < 0 && errno != EINTR)
            util::fatal("fleet: poll() failed");

        if (fds[0].revents & POLLIN) {
            const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                                     SOCK_CLOEXEC);
            if (fd >= 0) {
                auto conn = std::make_unique<Connection>();
                conn->fd = fd;
                conn->last_heard = Clock::now();
                connections_.push_back(std::move(conn));
            }
        }
        for (std::size_t i = 1; i < fds.size(); ++i) {
            if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            Connection *conn = polled[i - 1];
            // The connection may already be gone (dropped while
            // handling an earlier fd this round).
            bool still_open = false;
            for (const auto &c : connections_)
                still_open = still_open || c.get() == conn;
            if (still_open)
                readConnection(conn);
        }

        reapChildren();
        checkHeartbeats();
        acceptStatusConnections();
        broadcastStatus(false);
    }

    if (!folder_->complete())
        util::fatal("fleet: all shards reported done but only %zu of "
                    "%zu jobs folded",
                    folder_->filledCount(), folder_->jobCount());

    // The folder is complete, so the final STATE frames report
    // jobs_done == jobs_total to every watcher before their EOF.
    closeStatusPlane();
    shutdownFleet();

    FleetOutcome outcome;
    const auto campaign_end = Clock::now();
    const double wall_seconds =
        std::chrono::duration<double>(campaign_end - campaign_start)
            .count();

    if (trace_) {
        traceSpan(self_pid_, 0, "campaign " + fingerprint_,
                  campaign_start, campaign_end);
        if (!util::writeFile(options_.trace_out,
                             trace_->toChromeTraceJson()))
            util::fatal("fleet: could not write trace '%s'",
                        options_.trace_out.c_str());
        std::fprintf(stderr,
                     "fleet: %zu trace events written to %s\n",
                     trace_->size(), options_.trace_out.c_str());
    }

    outcome.report = folder_->takeReport(
        wall_seconds, static_cast<unsigned>(options_.workers));
    metrics_.gauge(obs::kFleetWorkerWallMs).value = worker_wall_ms_;
    outcome.fleet_metrics = std::move(metrics_);
    outcome.fingerprint = fingerprint_;
    return outcome;
}

} // namespace

FleetOutcome
serveCampaign(const ServeOptions &options)
{
    Coordinator coordinator(options);
    return coordinator.run();
}

} // namespace inc::fleet
