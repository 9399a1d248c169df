/**
 * @file
 * The run report: the forensic summary derived from one run's (or one
 * merged sweep's) metrics registry plus, when available, its flight
 * recorder.
 *
 * This is the analysis layer on top of the instrumentation layer — it
 * answers the paper's evaluation questions directly: where did each
 * nanojoule go (attribution table over the energy.* ledger split,
 * cross-checked against verifySimMetricIdentities), how long were the
 * outages and on-periods (p50/p95/p99 from the registry histograms),
 * how efficiently did each kernel turn energy into forward progress,
 * and what happened at each individual power failure (flight-recorder
 * log).
 *
 * Determinism contract: a report is a pure function of its inputs.
 * Building from the merged registry of a sharded sweep therefore
 * yields byte-identical JSON and text at any --jobs value — the same
 * guarantee the registry itself carries, extended one layer up. No
 * wall-clock times, hostnames or scheduling artifacts appear in the
 * output.
 */

#ifndef INC_OBS_REPORT_REPORT_H
#define INC_OBS_REPORT_REPORT_H

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/report/flight_recorder.h"

namespace inc::obs
{

/** One row of an energy table: a ledger category, its total, and its
 *  share of the table's reference total. */
struct AttributionRow
{
    std::string category;
    double nj = 0.0;
    double percent = 0.0;
};

/** Percentile summary of a registry histogram (0.1 ms sample units
 *  for the duration histograms). */
struct DurationSummary
{
    std::uint64_t count = 0;
    double mean = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
};

/** Forward-progress efficiency of one kernel within the run/sweep. */
struct KernelEfficiency
{
    std::string kernel;
    std::uint64_t forward_progress = 0;
    std::uint64_t instructions = 0;
    std::uint64_t frames_completed = 0;
    double consumed_nj = 0.0;
    /** Committed lane-instructions per microjoule consumed. */
    double progress_per_uj = 0.0;
};

struct RunReport
{
    // ---- headline counters ---------------------------------------------
    std::uint64_t samples = 0;
    std::uint64_t on_samples = 0;
    std::uint64_t cold_boots = 0;
    std::uint64_t backups = 0;
    std::uint64_t restores = 0;
    std::uint64_t instructions = 0;
    std::uint64_t forward_progress = 0;

    // ---- energy attribution (the compute-side ledger split) ------------
    /** fetch / datapath / idle / assemble rows; percents are of
     *  consumed_nj. */
    std::vector<AttributionRow> attribution;
    double attribution_sum_nj = 0.0;
    double consumed_nj = 0.0;
    /** True when the rows re-sum to energy.consumed_nj within 1e-9
     *  relative — the same identity verifySimMetricIdentities checks.
     *  False when the split accumulators were compiled out
     *  (INCIDENTAL_OBS=OFF publishes zero gauges). */
    bool split_exact = false;

    // ---- conservation ledger (where income + initial charge went) ------
    /** compute / backup / restore / leak / stored rows minus the
     *  unfunded credit; percents are of ledger_in_nj. */
    std::vector<AttributionRow> ledger;
    double ledger_in_nj = 0.0; ///< energy.initial_nj + energy.income_nj

    /** verifySimMetricIdentities output (empty = registry consistent). */
    std::vector<std::string> identity_violations;

    // ---- durations -------------------------------------------------------
    DurationSummary outage;    ///< hist.outage_samples
    DurationSummary on_period; ///< hist.on_period_samples

    // ---- per-kernel efficiency ------------------------------------------
    std::vector<KernelEfficiency> kernels;

    // ---- flight-recorder detail (absent offline / in sweeps) ------------
    bool has_flight = false;
    std::vector<OutageRecord> outage_log;
    std::uint64_t outage_log_dropped = 0;
    std::vector<FrameRecord> frame_log;
    std::uint64_t frame_log_dropped = 0;

    /** Canonical JSON document (schema "inc-run-report-v1"). */
    std::string toJson() const;

    /** Aligned text tables for terminals. */
    std::string renderText() const;
};

/**
 * Derive a report from @p m (a system-sim registry, possibly the merge
 * of many sweep jobs). @p flight adds the per-outage/per-frame log;
 * @p kernels adds the efficiency section (callers aggregate rows in a
 * deterministic order — nvpsim uses sweep expansion order).
 * progress_per_uj is (re)derived here, so callers only fill the raw
 * fields.
 */
RunReport buildRunReport(const MetricsRegistry &m,
                         const FlightRecorder *flight = nullptr,
                         std::vector<KernelEfficiency> kernels = {});

/** FNV-1a 64-bit digest, "fnv1a:" + 16 hex digits — the stable
 *  fingerprint the SuiteDigests golden (tests/test_golden_metrics.cc)
 *  pins for report drift detection. */
std::string reportDigest(const std::string &text);

} // namespace inc::obs

#endif // INC_OBS_REPORT_REPORT_H
