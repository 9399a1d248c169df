/**
 * @file
 * Fleet worker process body (`nvpsim work`).
 *
 * A worker connects to the coordinator's Unix socket, announces the
 * campaign fingerprint it derived independently from the campaign
 * file, then executes SHARD assignments until told to EXIT. Each shard
 * runs through a SweepRunner restricted to the shard's job range, with
 * a per-shard sweep journal (<fleet-dir>/shard-<id>) bound to the
 * campaign fingerprint: a shard reassigned after a crash warm-restarts
 * from whatever the dead incarnation journaled instead of recomputing.
 * Finished jobs stream back as RESULT frames the moment they are
 * journaled (the delivery hook), so a mid-shard crash loses nothing
 * the coordinator already folded, and every frame doubles as a
 * heartbeat. A shard the worker cannot run (a journal it cannot open,
 * or one bound to another campaign) is reported as ERROR, which stops
 * the fleet instead of being retried as a crash.
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
    std::string fleet_dir;
    bool collect_metrics = false;
    /** Test hook: SIGKILL self after this many jobs have been
     *  journaled (0 = disabled) — the fleet kill/reassign matrix. */
    std::size_t kill_after = 0;
};

/** Run the worker loop; returns the process exit code. Fatal (with a
 *  clear message) when the socket cannot be connected or the campaign
 *  file does not load. */
int runWorker(const WorkerOptions &options);

} // namespace inc::fleet

#endif // INC_FLEET_WORKER_H
