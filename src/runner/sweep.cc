#include "runner/sweep.h"

#include <chrono>
#include <exception>
#include <sstream>
#include <utility>

#include "kernels/kernel.h"
#include "obs/observer.h"
#include "obs/schema.h"
#include "runner/journal.h"
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
                if (spec.derive_config_seeds)
                    job.config.seed = job.rng_seed;
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
    // results is already in job-index order (ResultSink guarantees it),
    // so this fold — including the floating-point gauge sums — visits
    // jobs in the same order at any parallelism.
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

ResultSink::ResultSink(std::size_t num_jobs)
    : ResultSink(0, num_jobs)
{
}

ResultSink::ResultSink(std::size_t begin, std::size_t end)
    : begin_(begin), slots_(end - begin), filled_(end - begin, false)
{
    if (end < begin)
        util::panic("ResultSink: inverted range [%zu, %zu)", begin,
                    end);
}

void
ResultSink::deliver(JobResult result)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const std::size_t index = result.spec.index;
    if (index < begin_ || index - begin_ >= slots_.size())
        util::panic("ResultSink: job index %zu outside range "
                    "[%zu, %zu)",
                    index, begin_, begin_ + slots_.size());
    const std::size_t slot = index - begin_;
    if (filled_[slot])
        util::panic("ResultSink: job %zu delivered twice", index);
    slots_[slot] = std::move(result);
    filled_[slot] = true;
}

std::vector<JobResult>
ResultSink::take()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < filled_.size(); ++i) {
        if (!filled_[i])
            util::panic("ResultSink: job %zu never delivered",
                        begin_ + i);
    }
    return std::move(slots_);
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
    const int retries = spec_.max_retries < 0 ? 0 : spec_.max_retries;

    // setJobRange(): the grid (and its seed tree) above is always the
    // full campaign; the range only restricts which jobs execute.
    const std::size_t range_begin = has_range_ ? range_begin_ : 0;
    const std::size_t range_end = has_range_ ? range_end_ : jobs.size();
    if (range_begin >= range_end || range_end > jobs.size())
        util::fatal("SweepRunner: job range [%zu, %zu) invalid for "
                    "%zu-job campaign",
                    range_begin, range_end, jobs.size());

    SweepReport report;
    ResultSink sink(range_begin, range_end);
    const auto campaign_start = clock::now();
    progress_done_.store(0);
    progress_total_ = range_end - range_begin;

    // Warm restart: deliver journaled jobs without re-running. All
    // journal reads (and the underlying single-threaded Arena reads)
    // happen here, before any job is submitted — once workers start
    // they call journal_->record(), and interleaving the read side
    // with that would race. The journaled result text round-trips
    // bit-exactly, so the resumed campaign's aggregates are
    // byte-identical to an uninterrupted run's.
    std::vector<const JobSpec *> pending;
    pending.reserve(range_end - range_begin);
    for (std::size_t i = range_begin; i < range_end; ++i) {
        const JobSpec &job = jobs[i];
        if (journal_ && journal_->completed(job.index)) {
            JobResult jr;
            std::string err;
            if (journal_->load(job.index, &jr, &err)) {
                jr.spec = job;
                if (delivery_hook_)
                    delivery_hook_(jr);
                notifyProgress(jr);
                sink.deliver(std::move(jr));
                continue;
            }
            util::warn("sweep journal: job %zu marked complete but "
                       "unreadable (%s); re-running",
                       job.index, err.c_str());
        }
        pending.push_back(&job);
    }

    {
        ThreadPool pool(spec_.jobs <= 0
                            ? 0
                            : static_cast<unsigned>(spec_.jobs));
        report.jobs_used = pool.threadCount();
        const bool collect = spec_.collect_metrics;
        for (const JobSpec *job_ptr : pending) {
            const JobSpec &job = *job_ptr;
            pool.submit([this, &sink, &job, retries, collect] {
                recordAndDeliver(runSingleJob(job, retries, collect),
                                 sink);
            });
        }
        pool.wait();
    }
    report.results = sink.take();
    report.wall_seconds =
        std::chrono::duration<double>(clock::now() - campaign_start)
            .count();
    return report;
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

void
SweepRunner::recordAndDeliver(JobResult result, ResultSink &sink)
{
    if (journal_) {
        journal_->record(result);
        if (record_hook_)
            record_hook_(result.spec.index);
    }
    if (delivery_hook_)
        delivery_hook_(result);
    notifyProgress(result);
    sink.deliver(std::move(result));
}

void
SweepRunner::notifyProgress(const JobResult &result)
{
    const std::size_t done = progress_done_.fetch_add(1) + 1;
    if (progress_hook_)
        progress_hook_(result, done, progress_total_);
}

} // namespace inc::runner
