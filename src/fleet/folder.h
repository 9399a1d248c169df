/**
 * @file
 * Deterministic job-index-order folding of job results, and the one
 * owner of a campaign's journal.
 *
 * The coordinator hands each decoded RESULT frame, in whatever order
 * the fleet produces them, to a ResultFolder, which slots it by job
 * index; for `nvpsim sweep --arena` it runs the campaign itself
 * (runUnfolded) and folds each job as the frame it would travel as
 * (toDecoded).
 * Aggregation (mergedMetrics, the report, the CSV) walks the slots in
 * index order, so the folded campaign is byte-identical to a serial
 * run at any worker count, shard plan or interleaving.
 *
 * With a journal kept (keepJournal) the folder is the campaign's only
 * durable record and the only code that binds, loads or records
 * journal entries: the journal's jobs fold before anything runs, and
 * every job folded for the first time is recorded, so a resumed
 * campaign — `sweep --arena --resume` or a re-served fleet dir — runs
 * only what the journal lacks. A journaled job that does not parse
 * and a bind record that does not persist are refused, never re-run
 * past. A duplicate (a job re-run because its shard was re-dispatched
 * from its first unfolded job) must match the first delivery
 * byte-for-byte on result text and metrics JSON, or the fold reports
 * nondeterminism.
 *
 * The fuzzer's fleet_merge mode drives this class directly against an
 * un-sharded oracle, and its arena_recovery mode crashes a kept
 * journal mid-record (DESIGN.md §8, §12, §15).
 */

#ifndef INC_FLEET_FOLDER_H
#define INC_FLEET_FOLDER_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "fleet/protocol.h"
#include "runner/journal.h"
#include "runner/sweep.h"

namespace inc::fleet
{

class ResultFolder
{
  public:
    /** @p jobs is the campaign's full expansion (kept by copy). */
    explicit ResultFolder(std::vector<runner::JobSpec> jobs);

    /**
     * Keep the folded campaign in @p journal (not owned; it must
     * outlive the folder): a fresh journal is bound to @p fingerprint,
     * every job a bound one holds is folded now, and from here on each
     * job folded for the first time is recorded (a failed job is not;
     * it re-runs on resume). False + @p error, a clause that follows
     * the journal's location, when the journal holds another campaign
     * or an unreadable job, or its bind does not persist.
     */
    bool keepJournal(runner::SweepJournal *journal,
                     const std::string &fingerprint, std::string *error);

    /**
     * Fold one decoded RESULT. False + @p error on an out-of-range
     * index, an unparsable payload, or a duplicate that differs from
     * the first delivery.
     */
    bool fold(const DecodedResult &decoded, std::string *error);

    /**
     * Run every job not yet folded on @p runner (a runner of this
     * campaign) and fold each as it finishes, as the RESULT frame it
     * would travel as: `sweep --arena`'s campaign loop. @p after_fold,
     * when set, runs after each fold. False + @p error on the first
     * fold that fails; results after it are dropped.
     */
    bool runUnfolded(runner::SweepRunner &runner,
                     const std::function<void()> &after_fold,
                     std::string *error);

    std::size_t jobCount() const { return jobs_.size(); }
    std::size_t filledCount() const { return filled_count_; }
    /** Jobs this folder recorded into its kept journal whose records
     *  persisted (journaled jobs keepJournal folded are not counted). */
    std::size_t recordedCount() const { return recorded_count_; }
    bool complete() const { return filled_count_ == jobs_.size(); }

    /** All of [begin, end) folded? (The DONE-message check.) */
    bool rangeComplete(std::size_t begin, std::size_t end) const;

    /** The first index of [begin, end) not yet folded; @p end when
     *  the range is complete. @p end must not pass jobCount(). */
    std::size_t firstUnfolded(std::size_t begin, std::size_t end) const;

    /** The folded result of job @p index, parsed once by fold(). Valid
     *  for a folded index until takeReport(). */
    const runner::JobResult &result(std::size_t index) const
    {
        return slots_[index];
    }

    /**
     * Hand the folded campaign back as a SweepReport (results in
     * job-index order). Panics unless complete().
     */
    runner::SweepReport takeReport(double wall_seconds,
                                   unsigned jobs_used);

  private:
    std::vector<runner::JobSpec> jobs_;
    std::vector<runner::JobResult> slots_;
    std::vector<bool> filled_;
    /** Determinism surface of the first delivery, for duplicate
     *  verification: result_text + '\0' + metrics_json. */
    std::vector<std::string> signatures_;
    std::size_t filled_count_ = 0;
    std::size_t recorded_count_ = 0;
    runner::SweepJournal *journal_ = nullptr;
};

} // namespace inc::fleet

#endif // INC_FLEET_FOLDER_H
