/**
 * @file
 * Sweep-campaign journal: the persistent warm-restart state of a
 * campaign (DESIGN.md §12). fleet::ResultFolder is its one reader and
 * writer, for `nvpsim sweep --arena` and `nvpsim serve` alike: it binds
 * the journal, folds every journaled job before anything runs and
 * records each job it folds for the first time (fleet/folder.h).
 *
 * A journal directory holds one file, arena.log, an append-only record
 * log: a 32-byte file header (magic "RINALOG1", format version, CRC32),
 * one bind record (the job count and a fingerprint of the fully
 * expanded sweep: kernels, trace contents, variants, seed tree, plus a
 * caller-supplied extra string covering CLI flags), then one job record
 * per completed job (its bit-exact serialized SimResult plus its
 * metrics JSON). Every record is CRC32-guarded and fsynced before
 * bind()/record() returns true, so a SIGKILL at any instant loses at
 * most the job whose record had not yet returned.
 *
 * open() on an existing journal replays the log front to back and stops
 * at the first record that fails its checks (magic, header CRC, length
 * within the file, payload CRC, or order: one bind first, then job
 * records each below the job count and seen once). Everything from that
 * record on is a torn tail and is truncated away, so the next append
 * lands right after the durable prefix.
 *
 * Because serializeResult() round-trips doubles bit-exactly and merged
 * metrics are folded in job-index order, a killed-and-resumed campaign
 * produces merged metrics and reports byte-identical to an
 * uninterrupted run.
 *
 * Not thread safe, and it need not be: its one owner makes one call at
 * a time (the coordinator is single-threaded, and SweepRunner::runJobs()
 * hands `sweep --arena`'s results to the folder one at a time).
 */

#ifndef INC_RUNNER_JOURNAL_H
#define INC_RUNNER_JOURNAL_H

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "runner/sweep.h"

namespace inc::runner
{

/** Session statistics (`sweep --arena` prints them to stderr). */
struct JournalStats
{
    std::uint64_t appended_records = 0; ///< records appended this session
    std::uint64_t appended_bytes = 0;   ///< log bytes appended this session
    std::uint64_t replayed_records = 0; ///< records replayed at open
    std::uint64_t discarded_tail_bytes = 0; ///< torn tail truncated at open
    double recovery_ms = 0.0; ///< wall time of the open-replay pass
    bool recovered = false;   ///< opened an existing journal
};

class SweepJournal
{
  public:
    struct Options
    {
        /**
         * Fault injection: stop persisting log bytes after this many
         * have been appended this session (0 = off). The record that
         * crosses the limit is written only up to it — a torn tail —
         * and every later append is dropped.
         */
        std::uint64_t fail_after_log_bytes = 0;
    };

    /**
     * Create @p dir as a fresh journal, or recover the one already
     * there. Throws std::runtime_error on I/O errors, a corrupt file
     * header, a log of another format version, or a torn tail that
     * cannot be truncated.
     */
    static std::unique_ptr<SweepJournal> open(const std::string &dir,
                                              const Options &options);
    static std::unique_ptr<SweepJournal> open(const std::string &dir)
    {
        return open(dir, Options{});
    }

    ~SweepJournal();
    SweepJournal(const SweepJournal &) = delete;
    SweepJournal &operator=(const SweepJournal &) = delete;

    /**
     * Identity of a fully expanded campaign: CRC chained over kernel
     * names, trace names/sizes/sample bytes, variant names, the seed
     * tree, and @p extra (callers fold in anything else that changes
     * results — e.g. nvpsim's CLI flags). Two sweeps with equal
     * fingerprints produce bit-identical per-job results.
     */
    static std::string fingerprint(const SweepSpec &spec,
                                   const std::vector<JobSpec> &jobs,
                                   const std::string &extra);

    /** True once a campaign has been bound (fresh journals are not). */
    bool bound() const { return jobs_total_ > 0; }
    std::string boundFingerprint() const { return fingerprint_; }
    std::size_t jobsTotal() const { return jobs_total_; }
    std::size_t completedCount() const { return jobs_.size(); }

    /**
     * Bind a fresh journal to a campaign of @p num_jobs jobs. Returns
     * whether the bind record persisted; false, with nothing appended,
     * when the journal is already bound or @p num_jobs is 0.
     */
    bool bind(const std::string &fingerprint, std::size_t num_jobs);

    bool completed(std::size_t index) const
    {
        return jobs_.count(index) > 0;
    }

    /**
     * Reconstruct the journaled result of completed job @p index
     * (result bytes parsed bit-exactly; metrics JSON re-parsed; ok =
     * true; wall_ms = 0 — wall time is a scheduling artifact and never
     * reaches deterministic outputs). False if absent or malformed.
     */
    bool load(std::size_t index, JobResult *out,
              std::string *error = nullptr) const;

    /**
     * Persist one successful job. Returns whether its record persisted:
     * false, with nothing appended, for a failed job (it re-runs on
     * resume), one outside the bound campaign or one already recorded,
     * and false once the log is dead.
     */
    bool record(const JobResult &result);

    /** True once the log is dead — the injected fault tripped, or a
     *  real fsync failure made durability unknowable — and nothing
     *  appended since persists. */
    bool failed() const { return failed_; }

    JournalStats stats() const { return stats_; }

  private:
    SweepJournal() = default;

    void create(const std::string &path);
    void recover(const std::string &path);
    bool append(std::uint16_t type, std::uint64_t value,
                const std::string &payload);

    int fd_ = -1;
    std::uint64_t end_ = 0; ///< append position in arena.log
    std::uint64_t fail_after_ = 0; ///< 0 = fault injection off
    bool failed_ = false;
    JournalStats stats_;

    std::string fingerprint_;
    std::size_t jobs_total_ = 0;
    std::map<std::size_t, std::string> jobs_; ///< index -> record payload
};

} // namespace inc::runner

#endif // INC_RUNNER_JOURNAL_H
