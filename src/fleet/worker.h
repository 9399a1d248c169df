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
 * heartbeat.
 *
 * Live telemetry plane (DESIGN.md §16): after each RESULT the worker
 * emits a PROGRESS frame, plus one closing frame before DONE, carrying
 * the shard position, the last job label, a cumulative canonical-JSON
 * metrics snapshot of the shard so far, and a batch of completed trace
 * spans (shard/job lifecycle, per-job backup/restore counts) stamped
 * with the worker's real pid on the shared wall clock. The plane is
 * strictly one-way and lossy-safe: nothing in the result path reads it
 * back.
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
