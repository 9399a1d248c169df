#include "runner/sweep.h"

#include <chrono>
#include <exception>
#include <mutex>
#include <sstream>
#include <utility>

#include "kernels/kernel.h"
#include "obs/observer.h"
#include "obs/schema.h"
#include "runner/thread_pool.h"
#include "util/logging.h"

namespace inc::runner
{

namespace
{

/**
 * Seed for one retry attempt. Attempt 0 returns the job's own seed
 * untouched (bit-compatible with pre-retry sweeps); later attempts mix
 * the attempt index through a splitmix64 finalizer so a job whose
 * failure depends on its draws gets a genuinely different stream
 * instead of deterministically re-failing.
 */
std::uint64_t
retrySeed(std::uint64_t base, int attempt)
{
    if (attempt == 0)
        return base;
    std::uint64_t z = base + 0x9e3779b97f4a7c15ULL *
                                 static_cast<std::uint64_t>(attempt);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

std::string
JobSpec::describe() const
{
    std::ostringstream out;
    out << kernel << " x " << trace_name << " x " << variant << " (#"
        << index << ")";
    return out.str();
}

std::vector<JobSpec>
expandSweep(const SweepSpec &spec)
{
    if (spec.kernels.empty() || spec.traces.empty() ||
        spec.variants.empty())
        util::fatal("sweep grid is empty (kernels=%zu traces=%zu "
                    "variants=%zu)",
                    spec.kernels.size(), spec.traces.size(),
                    spec.variants.size());

    // The seed tree is forked in expansion order from a master stream,
    // never inside workers, so parallel execution cannot perturb it.
    util::Rng master(spec.master_seed);
    std::vector<JobSpec> jobs;
    jobs.reserve(spec.kernels.size() * spec.traces.size() *
                 spec.variants.size());
    for (std::size_t k = 0; k < spec.kernels.size(); ++k) {
        for (std::size_t t = 0; t < spec.traces.size(); ++t) {
            for (std::size_t v = 0; v < spec.variants.size(); ++v) {
                JobSpec job;
                job.index = jobs.size();
                job.kernel_index = k;
                job.trace_index = t;
                job.variant_index = v;
                job.kernel = spec.kernels[k];
                job.trace_name = spec.traces[t].name();
                job.variant = spec.variants[v].name;
                job.config = spec.variants[v].make(job.kernel);
                job.rng_seed = master.next();
                jobs.push_back(std::move(job));
            }
        }
    }
    return jobs;
}

bool
SweepReport::allOk() const
{
    return failureCount() == 0;
}

std::size_t
SweepReport::failureCount() const
{
    std::size_t n = 0;
    for (const auto &r : results)
        n += r.ok ? 0 : 1;
    return n;
}

std::vector<const JobResult *>
SweepReport::failures() const
{
    std::vector<const JobResult *> out;
    for (const auto &r : results) {
        if (!r.ok)
            out.push_back(&r);
    }
    return out;
}

obs::MetricsRegistry
SweepReport::mergedMetrics() const
{
    obs::MetricsRegistry merged;
    // results is already in job-index order (run() and the fleet's
    // ResultFolder both slot by index), so this fold — including the
    // floating-point gauge sums — visits jobs in the same order at any
    // parallelism.
    for (const JobResult &r : results) {
        if (r.ok)
            merged.merge(r.metrics);
    }
    merged.counter(obs::kRunnerJobsTotal).value +=
        static_cast<std::uint64_t>(results.size());
    merged.counter(obs::kRunnerJobsFailed).value +=
        static_cast<std::uint64_t>(failureCount());
    return merged;
}

std::vector<obs::KernelEfficiency>
SweepReport::kernelEfficiency() const
{
    std::vector<obs::KernelEfficiency> rows;
    for (const JobResult &r : results) {
        if (!r.ok)
            continue;
        obs::KernelEfficiency *row = nullptr;
        for (obs::KernelEfficiency &existing : rows) {
            if (existing.kernel == r.spec.kernel) {
                row = &existing;
                break;
            }
        }
        if (!row) {
            rows.emplace_back();
            row = &rows.back();
            row->kernel = r.spec.kernel;
        }
        row->forward_progress += r.result.forward_progress;
        row->instructions += r.result.main_instructions;
        row->frames_completed += r.result.controller.frames_completed;
        row->consumed_nj += r.result.consumed_energy_nj;
    }
    // progress_per_uj is derived by buildRunReport(); leave it zero.
    return rows;
}

std::string
SweepReport::failureReport() const
{
    std::ostringstream out;
    for (const JobResult *f : failures()) {
        out << "FAILED " << f->spec.describe() << " after "
            << f->attempts << " attempt" << (f->attempts == 1 ? "" : "s")
            << ": " << f->error << "\n";
    }
    return out.str();
}

SweepRunner::SweepRunner(SweepSpec spec)
    : SweepRunner(std::move(spec), &SweepRunner::simJob)
{
}

SweepRunner::SweepRunner(SweepSpec spec, JobFn body)
    : spec_(std::move(spec)), body_(std::move(body))
{
}

sim::SimResult
SweepRunner::simJob(const JobSpec &spec, const trace::PowerTrace &trace,
                    util::Rng &rng)
{
    (void)rng; // SystemSimulator forks its own tree from config.seed.
    const kernels::Kernel kernel = kernels::makeKernel(spec.kernel);
    sim::SystemSimulator simulator(kernel, &trace, spec.config);
    return simulator.run();
}

SweepReport
SweepRunner::run()
{
    using clock = std::chrono::steady_clock;

    const std::vector<JobSpec> jobs = expandSweep(spec_);
    SweepReport report;
    report.results.resize(jobs.size());
    const auto campaign_start = clock::now();
    // Job i lands in slot i, whatever order the pool finishes in.
    report.jobs_used = runJobs(jobs, [&report](JobResult result) {
        const std::size_t index = result.spec.index;
        report.results[index] = std::move(result);
    });
    report.wall_seconds =
        std::chrono::duration<double>(clock::now() - campaign_start)
            .count();
    return report;
}

unsigned
SweepRunner::runJobs(std::span<const JobSpec> jobs,
                     const ResultFn &deliver)
{
    const int retries = spec_.max_retries < 0 ? 0 : spec_.max_retries;
    const bool collect = spec_.collect_metrics;
    std::mutex deliver_mutex;
    ThreadPool pool(spec_.jobs <= 0 ? 0
                                    : static_cast<unsigned>(spec_.jobs));
    for (const JobSpec &job : jobs) {
        pool.submit([this, &deliver, &deliver_mutex, &job, retries,
                     collect] {
            JobResult result = runSingleJob(job, retries, collect);
            std::lock_guard<std::mutex> lock(deliver_mutex);
            deliver(std::move(result));
        });
    }
    pool.wait();
    return pool.threadCount();
}

JobResult
SweepRunner::runSingleJob(const JobSpec &job, int retries, bool collect)
{
    using clock = std::chrono::steady_clock;

    JobResult jr;
    jr.spec = job;
    const auto start = clock::now();
    for (int attempt = 0; attempt <= retries; ++attempt) {
        jr.attempts = attempt + 1;
        try {
            // Attempt 0 uses the job's own seed so results are
            // reproducible; retries fork a distinct stream — replaying
            // the identical RNG state would deterministically re-fail
            // any job whose failure is draw-dependent.
            util::Rng rng(retrySeed(job.rng_seed, attempt));
            if (collect) {
                // Fresh observer per attempt: a partial registry from
                // a thrown attempt must not leak into the kept one.
                obs::Observer observer;
                JobSpec instrumented = job;
                instrumented.config.obs = &observer;
                jr.result = body_(instrumented,
                                  spec_.traces[job.trace_index], rng);
                jr.metrics = std::move(observer.registry);
            } else {
                jr.result =
                    body_(job, spec_.traces[job.trace_index], rng);
            }
            jr.ok = true;
            jr.error.clear();
            break;
        } catch (const std::exception &e) {
            jr.ok = false;
            jr.error = e.what();
        } catch (...) {
            jr.ok = false;
            jr.error = "unknown exception";
        }
    }
    jr.wall_ms = std::chrono::duration<double, std::milli>(
                     clock::now() - start)
                     .count();
    return jr;
}

} // namespace inc::runner
