/**
 * @file
 * Fleet worker process body (`nvpsim work`).
 *
 * A worker connects to the coordinator's Unix socket, announces the
 * campaign fingerprint it derived independently from the campaign
 * file, then executes SHARD assignments until told to EXIT. Each shard
 * runs its slice of the expanded grid through SweepRunner::runJobs()
 * and streams every finished job back as a RESULT frame the moment it
 * completes, so a mid-shard crash loses only the job in flight, and
 * every frame doubles as a heartbeat. A worker
 * keeps no state: the coordinator journals what it folds (DESIGN.md
 * §15) and re-dispatches a lost shard from its first unfolded job.
 *
 * A worker sends nothing else: the coordinator's live view and fleet
 * trace (DESIGN.md §16) come from these RESULT and DONE frames.
 */

#ifndef INC_FLEET_WORKER_H
#define INC_FLEET_WORKER_H

#include <cstddef>
#include <string>

namespace inc::fleet
{

struct WorkerOptions
{
    std::string socket_path;
    std::string campaign_path;
    bool collect_metrics = false;
    /** Test hook: SIGKILL self after sending this many RESULT frames
     *  (0 = disabled) — the fleet kill/reassign matrix. */
    std::size_t kill_after = 0;
};

/** Run the worker loop; returns the process exit code. Fatal (with a
 *  clear message) when the socket cannot be connected or the campaign
 *  file does not load. */
int runWorker(const WorkerOptions &options);

} // namespace inc::fleet

#endif // INC_FLEET_WORKER_H
