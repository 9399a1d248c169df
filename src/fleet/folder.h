/**
 * @file
 * Deterministic job-index-order folding of worker results.
 *
 * The coordinator decodes RESULT frames in whatever order the fleet
 * produces them and hands each to a ResultFolder, which slots it by
 * job index. Because aggregation (SweepReport::mergedMetrics(), the
 * report pipeline, CSV emission) walks the slots in index order, the
 * folded campaign is byte-identical to a serial run regardless of
 * worker count, shard plan, or delivery interleaving.
 *
 * Duplicate deliveries are expected — a reassigned shard's journal
 * warm-restart replays results the dead worker already streamed — and
 * must match the first delivery byte-for-byte on the determinism
 * surface (result text + metrics JSON); a mismatched duplicate means
 * nondeterminism and is reported as an error.
 *
 * The fuzzer's fleet_merge mode drives this class directly against an
 * un-sharded oracle (DESIGN.md §8, §15).
 */

#ifndef INC_FLEET_FOLDER_H
#define INC_FLEET_FOLDER_H

#include <cstdint>
#include <string>
#include <vector>

#include "fleet/protocol.h"
#include "runner/sweep.h"

namespace inc::fleet
{

class ResultFolder
{
  public:
    /** @p jobs is the campaign's full expansion (kept by copy). */
    explicit ResultFolder(std::vector<runner::JobSpec> jobs);

    /**
     * Fold one decoded RESULT. False + @p error on an out-of-range
     * index, an unparsable payload, or a duplicate that differs from
     * the first delivery.
     */
    bool fold(const DecodedResult &decoded, std::string *error);

    std::size_t jobCount() const { return jobs_.size(); }
    std::size_t filledCount() const { return filled_count_; }
    bool complete() const { return filled_count_ == jobs_.size(); }

    /** All of [begin, end) folded? (The DONE-message check.) */
    bool rangeComplete(std::size_t begin, std::size_t end) const;

    /** The folded result of job @p index, parsed once by fold(). Valid
     *  for a folded index until takeReport(). */
    const runner::JobResult &result(std::size_t index) const
    {
        return slots_[index];
    }

    /** Total payload bytes folded (the fleet.merge.bytes metric). */
    std::uint64_t bytesFolded() const { return bytes_; }

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
    std::uint64_t bytes_ = 0;
};

} // namespace inc::fleet

#endif // INC_FLEET_FOLDER_H
