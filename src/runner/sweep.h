/**
 * @file
 * Declarative experiment-sweep orchestration (the batch runner behind
 * bench/fig*, tools/nvpsim sweep, and any future campaign).
 *
 * A SweepSpec names a grid — kernels x power traces x configuration
 * variants — plus a master seed and a parallelism degree. expandSweep()
 * flattens the grid into JobSpecs in a fixed (kernel-major, then trace,
 * then variant) order, forking one RNG seed per job from the master
 * seed in that same order. Because every job is fully described by its
 * JobSpec and jobs share no mutable state, executing them on 1 thread
 * or N threads produces bit-identical results; the ResultSink then
 * restores deterministic job-index order before aggregation, so all
 * downstream tables/CSVs are byte-identical at any --jobs value.
 *
 * Failure semantics: a job that throws is retried up to
 * SweepSpec::max_retries times; a job still failing lands in the
 * report's failure list (with its spec and attempt count) instead of
 * sinking the whole campaign. Campaign drivers exit nonzero only when
 * failures remain after retry.
 */

#ifndef INC_RUNNER_SWEEP_H
#define INC_RUNNER_SWEEP_H

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/report/report.h"
#include "sim/system_sim.h"
#include "trace/power_trace.h"
#include "util/rng.h"

namespace inc::runner
{

class SweepJournal;

/**
 * One configuration axis point. @p make receives the kernel name so a
 * variant can be kernel-dependent (e.g. the Table 2 tuned policies).
 */
struct ConfigVariant
{
    std::string name;
    std::function<sim::SimConfig(const std::string &kernel)> make;
};

/** Declarative description of a sweep campaign. */
struct SweepSpec
{
    std::vector<std::string> kernels;
    std::vector<trace::PowerTrace> traces;
    std::vector<ConfigVariant> variants;

    /** Root of the per-job RNG tree (see expandSweep()). */
    std::uint64_t master_seed = 2017;

    /** Worker threads; 0 = ThreadPool::defaultThreads(). */
    int jobs = 0;

    /** Bounded re-executions of a throwing job (0 = no retry). */
    int max_retries = 1;

    /**
     * Attach a per-job obs::Observer and keep each job's metric
     * registry in its JobResult (see SweepReport::mergedMetrics()).
     * Observation is non-perturbing, so results are unchanged; the
     * merge is performed in job-index order, so the aggregated
     * registry is byte-identical at any `jobs` value.
     */
    bool collect_metrics = false;
};

/** One fully resolved grid point. */
struct JobSpec
{
    std::size_t index = 0; ///< position in expansion order
    std::size_t kernel_index = 0;
    std::size_t trace_index = 0;
    std::size_t variant_index = 0;
    std::string kernel;
    std::string trace_name;
    std::string variant;
    sim::SimConfig config;

    /** Seed forked from the master seed at expansion time. */
    std::uint64_t rng_seed = 0;

    /** "kernel x trace x variant (#index)" for logs and reports. */
    std::string describe() const;
};

/**
 * Flatten the grid into jobs (kernel-major, then trace, then variant)
 * and fork one rng_seed per job from spec.master_seed. Deterministic:
 * the same spec always yields the same jobs, so results are
 * reproducible at any parallelism.
 */
std::vector<JobSpec> expandSweep(const SweepSpec &spec);

/** Outcome of one job, successful or not. */
struct JobResult
{
    JobSpec spec;
    sim::SimResult result; ///< valid only when ok
    double wall_ms = 0.0;
    int attempts = 0;
    bool ok = false;
    std::string error; ///< last exception message when !ok

    /** Per-job metric registry (populated when
     *  SweepSpec::collect_metrics and the job succeeded). */
    obs::MetricsRegistry metrics;
};

/** Aggregated campaign outcome, in deterministic job-index order. */
struct SweepReport
{
    std::vector<JobResult> results;
    double wall_seconds = 0.0;
    unsigned jobs_used = 1;

    bool allOk() const;
    std::size_t failureCount() const;

    /** Failed jobs, in job-index order. */
    std::vector<const JobResult *> failures() const;

    /**
     * Human-readable failure report (one line per failed job: spec,
     * attempts, last error). Empty string when allOk().
     */
    std::string failureReport() const;

    /**
     * Merge every successful job's registry, in job-index order, plus
     * `runner.jobs_total` / `runner.jobs_failed` counters. Excludes
     * scheduling artifacts (jobs_used, wall time), so serialising the
     * result is byte-identical at any parallelism. Empty unless the
     * sweep ran with SweepSpec::collect_metrics.
     */
    obs::MetricsRegistry mergedMetrics() const;

    /**
     * Per-kernel forward-progress efficiency rows for the run report,
     * aggregated over successful jobs. Rows appear in first-appearance
     * (i.e. expansion, kernel-major) order and fold every trace/variant
     * of a kernel together — deterministic at any parallelism, like
     * mergedMetrics().
     */
    std::vector<obs::KernelEfficiency> kernelEfficiency() const;
};

/**
 * Collects JobResults from worker threads and hands them back sorted
 * into job-index order. Thread safe. The sink covers the job-index
 * range [begin, end) — a whole sweep, or the shape a fleet shard
 * executes (see runner/shard.h); out-of-range deliveries panic.
 */
class ResultSink
{
  public:
    ResultSink(std::size_t begin, std::size_t end);

    /** Deliver a finished job (any thread). */
    void deliver(JobResult result);

    /** All results in job-index order. Call after the pool drained. */
    std::vector<JobResult> take();

  private:
    std::mutex mutex_;
    std::size_t begin_ = 0;
    std::vector<JobResult> slots_;
    std::vector<bool> filled_;
};

/** Executes a sweep across a ThreadPool. */
class SweepRunner
{
  public:
    /**
     * A job body: runs one grid point and returns its metrics. @p rng
     * is this job's private stream (seeded from JobSpec::rng_seed);
     * the default body ignores it because SystemSimulator seeds itself
     * from config.seed. May throw; the runner captures and retries.
     */
    using JobFn = std::function<sim::SimResult(
        const JobSpec &, const trace::PowerTrace &, util::Rng &)>;

    explicit SweepRunner(SweepSpec spec);
    SweepRunner(SweepSpec spec, JobFn body);

    /**
     * Attach a warm-restart journal (not owned; must outlive run()).
     * Jobs the journal marks completed are delivered from their
     * journaled, bit-exact results instead of re-running; jobs that
     * finish successfully are recorded (and committed) before delivery.
     * The caller is responsible for fingerprint checking/binding —
     * run() assumes the journal belongs to this campaign.
     */
    void setJournal(SweepJournal *journal) { journal_ = journal; }

    /**
     * Called after each job is journaled (with its index), from the
     * worker thread that ran it. Test hook: `nvpsim sweep
     * --kill-after N` uses it to SIGKILL itself mid-campaign.
     */
    void setRecordHook(std::function<void(std::size_t)> hook)
    {
        record_hook_ = std::move(hook);
    }

    /**
     * Restrict execution to jobs [begin, end) of the expansion order.
     * The full grid is still expanded — the per-job seed tree is forked
     * in expansion order, so a restricted run's results are bit-exactly
     * the same jobs a full run would produce — but only the range is
     * executed (or loaded from the journal) and run() returns only its
     * results. This is how a fleet worker executes one shard
     * (runner/shard.h). Validated against the grid inside run().
     */
    void setJobRange(std::size_t begin, std::size_t end)
    {
        range_begin_ = begin;
        range_end_ = end;
        has_range_ = true;
    }

    /**
     * Called with each job that ran right before it is delivered to the
     * sink (not with jobs loaded from the journal), from the thread that
     * ran it (callers synchronize). A fleet worker uses it to stream
     * results to the coordinator as they complete instead of waiting
     * for the whole shard.
     */
    void setDeliveryHook(std::function<void(const JobResult &)> hook)
    {
        delivery_hook_ = std::move(hook);
    }

    /** Expand, execute across the pool, aggregate. */
    SweepReport run();

    /** The default body: co-simulate spec.kernel on the trace. */
    static sim::SimResult simJob(const JobSpec &spec,
                                 const trace::PowerTrace &trace,
                                 util::Rng &rng);

  private:
    /** Run one job through body_ with the full retry loop. */
    JobResult runSingleJob(const JobSpec &job, int retries,
                           bool collect);

    /** Journal (+ hook) and deliver one finished job. */
    void recordAndDeliver(JobResult result, ResultSink &sink);

    SweepSpec spec_;
    JobFn body_;
    SweepJournal *journal_ = nullptr;
    std::function<void(std::size_t)> record_hook_;
    std::function<void(const JobResult &)> delivery_hook_;
    std::size_t range_begin_ = 0;
    std::size_t range_end_ = 0;
    bool has_range_ = false;
};

} // namespace inc::runner

#endif // INC_RUNNER_SWEEP_H
