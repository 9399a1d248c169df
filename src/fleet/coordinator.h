/**
 * @file
 * Fleet coordinator (`nvpsim serve`): shard a campaign across a fleet
 * of worker processes and fold their results deterministically.
 *
 * The coordinator expands the campaign once, plans contiguous job
 * shards (runner/shard.h), spawns up to N `nvpsim work` processes on
 * a Unix socket and event-loops over their connections: every RESULT
 * is folded by job index (fleet/folder.h), every DONE retires a shard,
 * and a worker that crashes (socket EOF) or goes silent past the
 * heartbeat timeout while it holds a shard has that shard re-queued
 * from its first unfolded job, with a bounded retry budget.
 *
 * The coordinator alone owns the fleet dir's durable state: one sweep
 * journal, <fleet-dir>/arena.log, that the folder fills with every job
 * it folds for the first time. Serving the campaign again folds the
 * journal before any worker spawns and runs only the rest, on at most
 * one worker per shard left; workers keep no state.
 *
 * Determinism (DESIGN.md §15): job identity is fixed at expansion;
 * shards and delivery order only schedule when a job runs, and the
 * fold restores job-index order, so the outputs equal a serial
 * `nvpsim sweep` at any worker count, across worker crashes and
 * across a killed coordinator served again.
 *
 * The live plane (DESIGN.md §16) — status rows, a running registry of
 * the folded jobs' metrics, STATE snapshots on --status-socket, and a
 * Chrome trace of shard/job spans and scheduling events on the
 * coordinator's clock — is built from the same RESULT and DONE frames
 * and never read back by the result path.
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
    /** The campaign's journal (arena.log) and, by default, the
     *  sockets live here. */
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
    /** Test hook: first-generation workers get --kill-after K and
     *  die after sending K results (respawns run clean). */
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
 * configuration errors, before any worker spawns: an unloadable
 * campaign; a fleet dir that holds anything but a journal and sockets,
 * a journal it cannot open, or one bound to a different campaign; an
 * unusable socket path. Also fatal: a shard exceeding its retry
 * budget. Job failures are not fatal — they surface in the report
 * exactly as in a serial sweep.
 */
FleetOutcome serveCampaign(const ServeOptions &options);

} // namespace inc::fleet

#endif // INC_FLEET_COORDINATOR_H
