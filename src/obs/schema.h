/**
 * @file
 * The metric-name schema published by the instrumented simulators, and
 * the cross-metric identity checker built on it.
 *
 * Names are dotted paths grouped by producer: `sim.*` and `energy.*`
 * from sim/system_sim, `ctrl.*` from the incidental controller's stats,
 * `bits.ticks.N` from the bitwidth controller, `core.*` / `mem.*` /
 * `queue.*` from the hot-path counter structs, `runner.*` from
 * runner-level aggregation.
 *
 * The identities verified here are the obs layer's test surface: they
 * are exact (or 1e-9-relative, for energy ledgers) consequences of the
 * simulator's bookkeeping, so any violation is an instrumentation or
 * simulator bug — the diff-harness fuzzer checks them on every trial.
 */

#ifndef INC_OBS_SCHEMA_H
#define INC_OBS_SCHEMA_H

#include <string>
#include <vector>

#include "obs/metrics.h"

namespace inc::obs
{

// ---- system-simulator counters -----------------------------------------
inline constexpr char kSimSamples[] = "sim.samples";
inline constexpr char kSimOnSamples[] = "sim.on_samples";
inline constexpr char kSimColdBoots[] = "sim.cold_boots";
inline constexpr char kSimInstructions[] = "sim.instructions";
inline constexpr char kSimForwardProgress[] = "sim.forward_progress";
inline constexpr char kSimCycles[] = "sim.cycles";
inline constexpr char kSimAdoptedLaneCycles[] = "sim.adopted_lane_cycles";
inline constexpr char kSimBackupAttempts[] = "sim.backup.attempts";
inline constexpr char kSimBackupsCommitted[] = "sim.backup.committed";
inline constexpr char kSimBackupsTorn[] = "sim.backup.torn";
inline constexpr char kSimRestores[] = "sim.restore.successes";
inline constexpr char kSimFrameAttempts[] = "sim.frames.capture_attempts";
inline constexpr char kSimFramesCaptured[] = "sim.frames.captured";
inline constexpr char kSimFramesDmaDropped[] = "sim.frames.dma_dropped";
inline constexpr char kSimFramesScored[] = "sim.frames.scored";
inline constexpr char kSimRetentionViolations[] =
    "sim.retention.violations";
inline constexpr char kSimRetentionFlips[] = "sim.retention.flips";

/** Per-bitwidth occupancy: "bits.ticks.0" (off) .. "bits.ticks.8". */
inline constexpr char kBitTicksPrefix[] = "bits.ticks.";

// ---- energy ledger gauges (all nJ, additive across shards) -------------
inline constexpr char kEnergyInitial[] = "energy.initial_nj";
inline constexpr char kEnergyIncome[] = "energy.income_nj";
inline constexpr char kEnergyFetch[] = "energy.fetch_nj";
inline constexpr char kEnergyDatapath[] = "energy.datapath_nj";
inline constexpr char kEnergyIdle[] = "energy.idle_nj";
inline constexpr char kEnergyAssemble[] = "energy.assemble_nj";
inline constexpr char kEnergyConsumed[] = "energy.consumed_nj";
inline constexpr char kEnergyBackup[] = "energy.backup_nj";
inline constexpr char kEnergyRestore[] = "energy.restore_nj";
inline constexpr char kEnergyLeak[] = "energy.leak_nj";
inline constexpr char kEnergyStoredFinal[] = "energy.stored_final_nj";
/** Demanded-but-unavailable drain (capacitor clamped at zero). */
inline constexpr char kEnergyUnfunded[] = "energy.unfunded_nj";

// ---- histograms ---------------------------------------------------------
inline constexpr char kHistOutageSamples[] = "hist.outage_samples";
inline constexpr char kHistBackupLanes[] = "hist.backup_lanes";
/** Duration of each completed ON period (recorded at backup), 0.1 ms
 *  units — the complement of hist.outage_samples; the run report
 *  derives its p50/p95/p99 duration summaries from these two. */
inline constexpr char kHistOnPeriodSamples[] = "hist.on_period_samples";

// ---- hot-path counter groups (obs/obs.h structs, folded at publish) ----
inline constexpr char kCoreSteps[] = "core.steps";
inline constexpr char kCoreInstrAlu[] = "core.instr.alu";
inline constexpr char kCoreInstrLoad[] = "core.instr.load";
inline constexpr char kCoreInstrStore[] = "core.instr.store";
inline constexpr char kCoreInstrBranch[] = "core.instr.branch";
inline constexpr char kCoreBranchTaken[] = "core.branch_taken";
inline constexpr char kCoreInstrJump[] = "core.instr.jump";
inline constexpr char kCoreInstrIncidental[] = "core.instr.incidental";
inline constexpr char kCoreInstrSystem[] = "core.instr.system";
inline constexpr char kCoreAssembles[] = "core.assembles";
inline constexpr char kCoreAssembleBytes[] = "core.assemble_bytes";
inline constexpr char kCoreLaneCommits[] = "core.lane_commits";

inline constexpr char kMemLoads[] = "mem.loads";
inline constexpr char kMemStores[] = "mem.stores";
inline constexpr char kMemAcTruncatedLoads[] = "mem.ac_truncated_loads";
inline constexpr char kMemAcTruncatedStores[] = "mem.ac_truncated_stores";
inline constexpr char kMemWtCommits[] = "mem.wt_commits";
inline constexpr char kMemWtRejects[] = "mem.wt_rejects";
inline constexpr char kMemAssembleBytes[] = "mem.assemble_bytes";
inline constexpr char kMemVersionResets[] = "mem.version_resets";
inline constexpr char kMemLaneClears[] = "mem.lane_clears";
inline constexpr char kMemDecayPasses[] = "mem.decay_passes";

inline constexpr char kQueueRequests[] = "queue.requests";
inline constexpr char kQueuePasses[] = "queue.passes";
inline constexpr char kQueueDropped[] = "queue.dropped";

// ---- incidental-controller stats (core::ControllerStats) ---------------
inline constexpr char kCtrlBackups[] = "ctrl.backups";
inline constexpr char kCtrlRestores[] = "ctrl.restores";
inline constexpr char kCtrlRollForwards[] = "ctrl.roll_forwards";
inline constexpr char kCtrlPlainResumes[] = "ctrl.plain_resumes";
inline constexpr char kCtrlAdoptions[] = "ctrl.adoptions";
inline constexpr char kCtrlHistorySpawns[] = "ctrl.history_spawns";
inline constexpr char kCtrlRecomputeSpawns[] = "ctrl.recompute_spawns";
inline constexpr char kCtrlRetirements[] = "ctrl.retirements";
inline constexpr char kCtrlDroppedStale[] = "ctrl.dropped_stale";
inline constexpr char kCtrlFramesStarted[] = "ctrl.frames_started";
inline constexpr char kCtrlFramesCompleted[] = "ctrl.frames_completed";
inline constexpr char kCtrlFramesAbandoned[] = "ctrl.frames_abandoned";
inline constexpr char kCtrlRegDecayEvents[] = "ctrl.reg_decay_events";

// ---- checkpoint strategies (src/sim/strategy; DESIGN.md §14) ------------
/** Image commits at in-situ backup events (== sim.backup.committed). */
inline constexpr char kCkptBackups[] = "ckpt.backup.events";
/** Extra threshold-triggered commits (ondemand watermark crossings). */
inline constexpr char kCkptSnapshots[] = "ckpt.snapshot.events";
/** Bytes written into the image across all commits. */
inline constexpr char kCkptBackupBytes[] = "ckpt.backup.bytes";
/** Wake-up restores serviced (cold boots excluded; +sim.cold_boots ==
 *  sim.restore.successes). */
inline constexpr char kCkptRestores[] = "ckpt.restore.events";
inline constexpr char kCkptRestoreBytes[] = "ckpt.restore.bytes";
/** 4-byte words written vs covered per commit; their ratio is the
 *  strategy's dirty ratio (1.0 for full-image strategies). */
inline constexpr char kCkptWordsWritten[] = "ckpt.dirty.words_written";
inline constexpr char kCkptWordsTracked[] = "ckpt.dirty.words_tracked";
/** Modeled backup energy, nJ (ld8+st8 per byte; reported, not drained). */
inline constexpr char kCkptBackupEnergy[] = "ckpt.energy.backup_nj";
/** Modeled restore copy-loop latency, us. */
inline constexpr char kCkptRestoreLatency[] = "ckpt.restore.modeled_us";
/** Per-run strategy tag: "ckpt.strategy.<name>" += 1. */
inline constexpr char kCkptStrategyPrefix[] = "ckpt.strategy.";

// ---- runner aggregation -------------------------------------------------
inline constexpr char kRunnerJobsTotal[] = "runner.jobs_total";
inline constexpr char kRunnerJobsFailed[] = "runner.jobs_failed";

// ---- flight recorder (bounded-log overflow accounting) ------------------
inline constexpr char kFlightDroppedOutages[] = "flight.dropped_outages";
inline constexpr char kFlightDroppedFrames[] = "flight.dropped_frames";

// ---- fleet coordinator (scheduling artifacts; kept in a separate
// registry — never merged into campaign metrics, whose bytes must be
// independent of worker count and crash history; DESIGN.md §15) ----------
inline constexpr char kFleetShardsPlanned[] = "fleet.shards.planned";
inline constexpr char kFleetShardsDispatched[] =
    "fleet.shards.dispatched";
inline constexpr char kFleetShardsCompleted[] =
    "fleet.shards.completed";
inline constexpr char kFleetShardsReassigned[] =
    "fleet.shards.reassigned";
inline constexpr char kFleetShardsRetried[] = "fleet.shards.retried";
inline constexpr char kFleetWorkersSpawned[] = "fleet.workers.spawned";
inline constexpr char kFleetWorkersLost[] = "fleet.workers.lost";
inline constexpr char kFleetWorkerWallMs[] = "fleet.worker.wall_ms";
inline constexpr char kFleetMergeBytes[] = "fleet.merge.bytes";

// ---- fleet live-telemetry plane (status socket; DESIGN.md §16). Same
// separate-registry rule as the fleet.* block above: it counts the
// observability side channel, never the campaign results. ---------------
/** Status snapshots served over the --status-socket endpoint. */
inline constexpr char kFleetStatusRequests[] = "fleet.status.requests";

// ---- trace counter series (EventTracer phase-"C" names; declared
// here so the schema lint covers every emitted name literal) --------------
/** Capacitor charge series in the run trace, nJ. */
inline constexpr char kTraceCapSeries[] = "cap_nj";

/**
 * Check every cross-metric identity a system-simulator registry must
 * satisfy (counter identities exactly; energy ledgers within
 * @p rel_tol relative). Returns one line per violation; empty means
 * the registry is consistent. Registries that merged several runs
 * satisfy the same identities — every one is preserved under
 * addition.
 */
std::vector<std::string>
verifySimMetricIdentities(const MetricsRegistry &m,
                          double rel_tol = 1e-9);

} // namespace inc::obs

#endif // INC_OBS_SCHEMA_H
