/**
 * @file
 * Declarative experiment-sweep orchestration (the batch runner behind
 * bench/fig*, tools/nvpsim sweep, the fleet's workers and any future
 * campaign).
 *
 * A SweepSpec names a grid — kernels x power traces x configuration
 * variants — plus a master seed and a parallelism degree. expandSweep()
 * flattens the grid into JobSpecs in a fixed (kernel-major, then trace,
 * then variant) order, forking one RNG seed per job from the master
 * seed in that same order. Because every job is fully described by its
 * JobSpec and jobs share no mutable state, executing them on 1 thread
 * or N threads produces bit-identical results; run() slots each result
 * by its job index, so all downstream tables/CSVs are byte-identical
 * at any --jobs value.
 *
 * SweepRunner only runs jobs: run() executes a whole campaign in
 * memory, runJobs() any list of its jobs, handing each result to the
 * caller as it finishes. Keeping a campaign across processes — the
 * journal, resume, the fleet's merge — is fleet::ResultFolder's job
 * (fleet/folder.h).
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
#include <span>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/report/report.h"
#include "sim/system_sim.h"
#include "trace/power_trace.h"
#include "util/rng.h"

namespace inc::runner
{

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

    /** Receives one finished job (see runJobs()). */
    using ResultFn = std::function<void(JobResult)>;

    explicit SweepRunner(SweepSpec spec);
    SweepRunner(SweepSpec spec, JobFn body);

    /** Expand, execute every job across the pool, and return the
     *  results in job-index order. */
    SweepReport run();

    /**
     * Execute @p jobs — entries of expandSweep() of this runner's spec,
     * any subset in any order: a fleet shard, the jobs a journal lacks
     * — across the pool, and hand each finished job to @p deliver, in
     * completion order, one call at a time, from the thread that ran
     * it. Returns once every job has been delivered; the value is the
     * pool's thread count.
     */
    unsigned runJobs(std::span<const JobSpec> jobs,
                     const ResultFn &deliver);

    /** The default body: co-simulate spec.kernel on the trace. */
    static sim::SimResult simJob(const JobSpec &spec,
                                 const trace::PowerTrace &trace,
                                 util::Rng &rng);

  private:
    /** Run one job through body_ with the full retry loop. */
    JobResult runSingleJob(const JobSpec &job, int retries,
                           bool collect);

    SweepSpec spec_;
    JobFn body_;
};

} // namespace inc::runner

#endif // INC_RUNNER_SWEEP_H
