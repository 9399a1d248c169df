/**
 * @file
 * Fleet coordinator (`nvpsim serve`): shard a campaign across a fleet
 * of worker processes and fold their results deterministically.
 *
 * The coordinator expands the campaign's SweepSpec once, plans
 * contiguous job shards (runner/shard.h), spawns N `nvpsim work`
 * processes pointed at a Unix socket, and event-loops over their
 * connections: every RESULT frame is folded by job index
 * (fleet/folder.h), every DONE retires a shard, and a worker that
 * crashes (socket EOF — SIGKILL closes it instantly) or goes silent
 * past the heartbeat timeout has its in-flight shard re-queued, with a
 * bounded per-shard retry budget, and a fresh worker respawned. A
 * reassigned shard warm-restarts from its per-shard sweep journal, so
 * crashes cost only the jobs that had not yet been journaled.
 *
 * Determinism argument (DESIGN.md §15): job identity (specs + seed
 * tree) is fixed at expansion time; shard boundaries and delivery
 * order only schedule *when* a job runs, never *what* it computes;
 * folding restores job-index order before any aggregation. Hence the
 * merged metrics, report and CSV bytes are identical to a serial
 * `nvpsim sweep` at any worker count — including after SIGKILLing
 * every worker once (the fleet test tier pins this).
 *
 * Live telemetry plane (DESIGN.md §16), built from the RESULT and
 * DONE frames the coordinator already folds: each RESULT advances its
 * worker's status row, and each freshly folded job's metrics join one
 * running live registry. When a --status-socket is configured, the
 * coordinator serves point-in-time STATE snapshots — campaign
 * fingerprint, per-worker health/heartbeat/shard progress, jobs
 * done/total, throughput/ETA, fleet.* counters, live outage
 * percentiles — to every status connection on a throttled cadence
 * plus a final jobs_done == jobs_total frame at completion. With
 * trace_out set, it stamps shard and job spans on each worker's pid
 * and its own scheduling events (spawn/hello/assign/reassign/loss)
 * with its steady clock since campaign start, into one Chrome-trace
 * timeline with a process-name record per fleet process. The entire
 * plane is read-only over the result path, so enabling it cannot
 * perturb the byte-identity guarantees above.
 */

#ifndef INC_FLEET_COORDINATOR_H
#define INC_FLEET_COORDINATOR_H

#include <cstddef>
#include <string>

#include "obs/metrics.h"
#include "runner/sweep.h"

namespace inc::fleet
{

struct ServeOptions
{
    std::string campaign_path;
    /** Shard journals, fingerprint marker and (by default) the socket
     *  live here. */
    std::string fleet_dir;
    /** Empty = <fleet_dir>/fleet.sock. */
    std::string socket_path;
    /** Path to the nvpsim binary to exec workers from
     *  (/proc/self/exe, resolved by the CLI). */
    std::string nvpsim_path;
    int workers = 1;
    double heartbeat_timeout_s = 120.0;
    bool collect_metrics = false;
    /** Live status endpoint socket path; empty = no status socket. */
    std::string status_socket;
    /** Fleet-wide Chrome-trace output path; empty = no trace. */
    std::string trace_out;
    /** Test hook: first-generation workers get --kill-after K, so
     *  every worker dies exactly once (respawns run clean). */
    std::size_t kill_worker_after = 0;
};

struct FleetOutcome
{
    /** The folded campaign, results in job-index order. */
    runner::SweepReport report;
    /** fleet.* scheduling metrics (separate registry; see
     *  obs/schema.h). */
    obs::MetricsRegistry fleet_metrics;
    /** The campaign fingerprint the fleet ran under. */
    std::string fingerprint;
};

/**
 * Serve one campaign to completion. Fatal (clear message) on
 * configuration errors: unloadable campaign, a fleet dir whose
 * fingerprint marker names a different campaign, an unusable socket
 * path, or a shard exceeding its retry budget. Job failures are not
 * fatal — they surface in the report exactly as in a serial sweep.
 */
FleetOutcome serveCampaign(const ServeOptions &options);

} // namespace inc::fleet

#endif // INC_FLEET_COORDINATOR_H
