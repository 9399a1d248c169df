/**
 * @file
 * Shard planning for fleet campaigns (src/fleet).
 *
 * A shard is a contiguous range of job indices in expansion order.
 * planShards() partitions [0, num_jobs) into at most @p max_shards
 * near-equal contiguous ranges — deterministic, covering every job
 * exactly once — so a coordinator can hand each range to a worker
 * process and fold the results back in job-index order. A worker
 * expands the full grid once and hands the shard's slice of it to
 * SweepRunner::runJobs(), so no seed is re-derived and a shard's
 * results are bit-identical to the same jobs in a serial run.
 */

#ifndef INC_RUNNER_SHARD_H
#define INC_RUNNER_SHARD_H

#include <cstddef>
#include <vector>

namespace inc::runner
{

/** One contiguous slice [begin, end) of a campaign's job list. */
struct ShardRange
{
    std::size_t id = 0; ///< position in plan order (== vector index)
    std::size_t begin = 0;
    std::size_t end = 0;

    std::size_t size() const { return end - begin; }
};

/**
 * Partition @p num_jobs jobs into min(max_shards, num_jobs) contiguous
 * shards whose sizes differ by at most one (earlier shards take the
 * remainder). Empty when num_jobs == 0; fatal when max_shards == 0.
 */
std::vector<ShardRange> planShards(std::size_t num_jobs,
                                   std::size_t max_shards);

} // namespace inc::runner

#endif // INC_RUNNER_SHARD_H
