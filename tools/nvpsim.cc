/**
 * @file
 * nvpsim — command-line front end to the incidental-computing stack.
 *
 * Each subcommand declares one flag table (commands() at the end of
 * this file); the campaign knobs shared with campaign files come from
 * fleet::campaignFlags(). Parsing is strict and finishes before any
 * work starts (util/flags.h): an unknown, repeated or value-less flag,
 * a number out of range or an extra argument is fatal, and the error
 * names the subcommand and the flag and prints the usage generated
 * from the table. `nvpsim CMD --help` is such an error, so it shows
 * CMD's flags.
 *
 * Subcommands:
 *
 *   nvpsim trace
 *       Synthesize a watch-harvester trace, print its statistics, and
 *       optionally save it as CSV (loadable back via --trace).
 *
 *   nvpsim run
 *       Co-simulate a kernel on a power trace (--trace F.csv, else
 *       the synthesized --profile N) and print the result record
 *       (forward progress, backups, quality, lane statistics). The
 *       config flags (--mode, --bits, --minbits, --policy, --baseline,
 *       --engine, --strategy, --income-scale, --frame-factor, --seconds,
 *       --seed) are the campaign knobs, resolved by
 *       fleet::campaignConfig exactly as a sweep resolves them.
 *       --metrics attaches an observer (src/obs) and writes its metric
 *       registry as JSON, then verifies the cross-metric identities of
 *       obs/schema.h (violations exit nonzero). --trace-out writes a
 *       Chrome-trace / Perfetto JSON timeline (power phases, backups,
 *       restores, frame lifetimes, capacitor level); it is named
 *       --trace-out rather than --trace because --trace already means
 *       "input power-trace CSV". --strategy selects the backup
 *       strategy attached to the run (sim::allStrategies(): active,
 *       freezer, ondemand; DESIGN.md §14). Strategies are an
 *       observation overlay — the simulated trajectory is
 *       bit-identical across all of them — that reports its backup
 *       cost in the ckpt.* metric block. Each run starts from a fresh
 *       memory: the NVM's power loss is modelled inside the run, and
 *       nothing of it is kept between processes.
 *
 *   nvpsim sweep
 *       Run the --kernels x --profiles grid in parallel on --jobs
 *       worker threads (default: hardware concurrency) via
 *       runner::SweepRunner.
 *       Results are aggregated in deterministic job order — the output
 *       is byte-identical at any --jobs value, including the merged
 *       metric registry that --metrics writes (per-job registries are
 *       folded in job-index order and scheduling artifacts are
 *       excluded). Failing jobs are retried once, then reported; the
 *       exit status is nonzero only if failures remain after retry.
 *       --inject-failure J makes job J throw (a testing aid for the
 *       failure-capture path). --report derives a run report from
 *       the merged registry (plus per-kernel efficiency rows) and prints
 *       it; --report-out saves its JSON. Report output carries no
 *       scheduling artifacts — with --report the sweep header also
 *       omits worker/wall-clock info — so the full stdout and the
 *       saved report are byte-identical at any --jobs value.
 *       --arena DIR journals campaign progress into the sweep
 *       journal DIR/arena.log through the fleet::ResultFolder `serve`
 *       keeps its fleet dir with: each completed job's bit-exact
 *       result is appended and fsynced, and a killed campaign
 *       restarted with the same flags plus --resume re-runs only the
 *       unfinished jobs — the merged metrics/report/CSV output is
 *       byte-identical to an uninterrupted run. Resuming requires
 *       --resume (a bound journal without it is a fatal error, as are
 *       a flag/fingerprint mismatch, a journaled job that does not
 *       parse, a bind record that does not persist, and --resume
 *       without --arena). Journal session statistics go to stderr so
 *       stdout stays parallelism- and history-independent. --kill-after
 *       N is a testing aid that SIGKILLs the process once N jobs have
 *       been journaled in this session.
 *
 *   nvpsim serve CAMPAIGN.json
 *       Fleet campaign service (src/fleet, DESIGN.md §15): expand the
 *       campaign file's grid once, split it into contiguous job shards
 *       (4 per worker) and run them on up to --workers `nvpsim work`
 *       processes over a Unix socket, folding every streamed result
 *       into job-index order: --out/--metrics/--report are
 *       byte-identical to `nvpsim sweep` at any worker count. The
 *       coordinator journals each folded job into --fleet-dir/arena.log
 *       (default CAMPAIGN.json.fleet; the `sweep --arena` format), so
 *       serving the campaign again — after a crash or a finished run —
 *       runs only what the journal lacks. A worker lost to a crash or
 *       to --heartbeat-timeout has its shard reassigned from the first
 *       unfolded job (at most 3 times). fleet.* scheduling metrics go
 *       to stderr and to --fleet-metrics (default: the --metrics path
 *       plus .fleet.json), never into campaign outputs. Test hook:
 *       --kill-worker-after K SIGKILLs each first-generation worker
 *       after it sent K results. --status-socket[=PATH] (default
 *       <fleet-dir>/status.sock) streams STATE snapshots to `nvpsim
 *       status`; --trace-out writes the fleet's Chrome trace (DESIGN.md
 *       §16). Neither moves an output byte.
 *
 *   nvpsim work
 *       Fleet worker (spawned by `nvpsim serve`): connects to --socket,
 *       announces the fingerprint it derived from --campaign, and runs
 *       SHARD assignments, streaming each result as it completes, until
 *       EXIT. It keeps no state and dies with its coordinator.
 *
 *   nvpsim status <SOCKET|FLEET-DIR>
 *       Query a running campaign's --status-socket (a fleet dir
 *       resolves to DIR/status.sock): jobs done/total, throughput/ETA,
 *       per-worker health and live outage percentiles. --json prints
 *       the raw inc-fleet-status-v1 document; --watch follows the
 *       stream (with --json one document per line), whose last frame
 *       reports jobs_done == jobs_total. Exits nonzero when the socket
 *       is unreachable, no snapshot arrives, or a watched stream ends
 *       before its campaign finished (the coordinator died).
 *
 *   nvpsim fuzz
 *       Differential crash-consistency fuzzing (src/check): N seeded
 *       trials of randomized kernels on mutated power traces through
 *       the co-simulator, cross-validated against the functional
 *       simulator and the structural invariants of incidental
 *       computing. Violations exit nonzero and, with --repro-dir,
 *       write self-contained repro bundles (--minimize also shrinks
 *       them). --replay re-runs one bundle deterministically.
 *       --inject-bug is a testing aid that plants a known recovery
 *       bug so the harness itself can be validated. --engine-diff
 *       additionally re-runs every co-simulator trial under the
 *       reference engine (nvp::allExecEngines(): reference,
 *       predecoded) and requires the serialized SimResult and metrics
 *       JSON to match byte-for-byte (the engine-equivalence
 *       invariant; see DESIGN.md §11).
 *       --modes restricts trials to a comma-separated list of trial
 *       modes (exact_recovery, bounded_error, monotone_bits,
 *       rac_merge, arena_recovery, strategy_diff, fleet_merge);
 *       filtered trials keep the specs an unfiltered run of the same
 *       seed would draw, so repro seeds stay exact.
 *
 *   nvpsim report
 *       Run a co-simulation (the trace and config flags of `run`)
 *       with an observer + flight recorder attached and print the
 *       derived run report (src/obs/report): energy
 *       attribution over the energy.* ledger split, conservation
 *       ledger, outage/on-period p50/p95/p99, per-kernel
 *       forward-progress efficiency, and the per-outage flight log.
 *       --out also saves the canonical JSON form. --from-metrics
 *       re-derives the report offline from a previously written
 *       metrics JSON (no simulation, no flight log). Exits nonzero
 *       when the registry violates the obs/schema.h identities.
 *
 *   nvpsim asm FILE.s
 *       Assemble a program; print the disassembly, optionally execute
 *       it (--run, at most --steps instructions).
 *
 *   nvpsim kernels
 *       List the registered testbench kernels with program sizes.
 */

#include <chrono>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>

#include <unistd.h>

#include "check/diff_harness.h"
#include "core/pragma_parser.h"
#include "fleet/campaign.h"
#include "fleet/coordinator.h"
#include "fleet/folder.h"
#include "fleet/protocol.h"
#include "fleet/socket.h"
#include "fleet/worker.h"
#include "isa/disassembler.h"
#include "kernels/kernel.h"
#include "obs/event_tracer.h"
#include "obs/json.h"
#include "obs/observer.h"
#include "obs/report/flight_recorder.h"
#include "obs/report/report.h"
#include "obs/schema.h"
#include "runner/journal.h"
#include "runner/sweep.h"
#include "runner/thread_pool.h"
#include "sim/system_sim.h"
#include "trace/outage_stats.h"
#include "trace/trace_generator.h"
#include "util/csv.h"
#include "util/fs.h"
#include "util/logging.h"
#include "util/table.h"

using namespace inc;

namespace
{

using util::Flag;
using util::FlagKind;
using util::Flags;

/** Write one output file, creating its parent directory, and announce
 *  it on stdout as @p what unless that is null; fatal on failure.
 *  Every file nvpsim writes goes through here. */
void
writeOrDie(const std::string &path, const std::string &content,
           const char *what)
{
    if (!util::writeFile(path, content))
        util::fatal("could not write '%s'", path.c_str());
    if (what != nullptr)
        std::printf("%s written to %s\n", what, path.c_str());
}

std::string
readOrDie(const std::string &path)
{
    std::string content;
    if (!util::readFile(path, &content))
        util::fatal("cannot open '%s'", path.c_str());
    return content;
}

/** A count as a table cell. */
template <typename T>
std::string
integer(T value)
{
    return util::Table::integer(static_cast<long long>(value));
}

/** Print metric-identity violations; the exit status they imply. */
int
reportViolations(const std::vector<std::string> &violations)
{
    for (const auto &v : violations)
        std::fprintf(stderr, "metric identity violated: %s\n", v.c_str());
    return violations.empty() ? 0 : 1;
}

/** --trace F.csv, else --profile N synthesized for the campaign's
 *  --seconds and --seed. */
trace::PowerTrace
loadOrGenerateTrace(const Flags &flags, const fleet::CampaignSpec &spec)
{
    if (flags.has("trace")) {
        std::string error;
        trace::PowerTrace t = trace::PowerTrace::loadCsv(
            flags.text("trace"), "file trace", &error);
        if (t.empty())
            util::fatal("could not load trace: %s", error.c_str());
        return t;
    }
    trace::TraceGenerator gen(trace::paperProfile(flags.num("profile", 2)),
                              spec.seed);
    return gen.generate(fleet::traceSamples(spec.seconds));
}

int
cmdTrace(const Flags &flags)
{
    const trace::PowerTrace t =
        loadOrGenerateTrace(flags, fleet::campaignFromFlags(flags));
    const trace::OutageStats stats = trace::analyzeOutages(t);

    util::Table table(t.name());
    table.setHeader({"metric", "value"});
    table.addRow({"duration", util::Table::num(t.durationSec(), 2) +
                                  " s"});
    table.addRow({"mean power",
                  util::Table::num(t.meanPower(), 1) + " uW"});
    table.addRow({"peak power",
                  util::Table::num(t.peakPower(), 0) + " uW"});
    table.addRow({"harvestable energy",
                  util::Table::num(t.totalEnergyUj(), 1) + " uJ"});
    table.addRow({"emergencies (33 uW)", integer(stats.count())});
    table.addRow({"mean outage",
                  util::Table::num(stats.meanDurationTenthMs() / 10.0,
                                   2) +
                      " ms"});
    table.addRow({"longest outage",
                  util::Table::num(stats.maxDurationTenthMs() / 10.0,
                                   1) +
                      " ms"});
    table.print();

    if (flags.has("out"))
        writeOrDie(flags.text("out"), t.toCsv(), "trace");
    return 0;
}

int
cmdRun(const Flags &flags)
{
    const fleet::CampaignSpec spec = fleet::campaignFromFlags(flags);
    sim::SimConfig cfg = fleet::campaignConfig(spec);
    const std::string name = flags.text("kernel", "sobel");
    const kernels::Kernel kernel = kernels::makeKernel(name);
    const trace::PowerTrace t = loadOrGenerateTrace(flags, spec);

    const bool want_metrics = flags.has("metrics");
    const bool want_trace = flags.has("trace-out");
    obs::Observer observer;
    obs::EventTracer tracer;
    if (want_trace)
        observer.tracer = &tracer;
    if (want_metrics || want_trace)
        cfg.obs = &observer;

    sim::SystemSimulator s(kernel, &t, cfg);
    const sim::SimResult r = s.run();

    util::Table table(name + " on " + t.name());
    table.setHeader({"metric", "value"});
    auto add = [&table](const char *k, const std::string &v) {
        table.addRow({k, v});
    };
    add("forward progress (all lanes)", integer(r.forward_progress));
    add("lane-0 instructions", integer(r.main_instructions));
    add("system-on time",
        util::Table::num(100.0 * r.on_time_fraction, 1) + " %");
    add("backups / restores",
        integer(r.backups) + " / " + integer(r.restores));
    add("roll-forwards", integer(r.controller.roll_forwards));
    add("SIMD adoptions", integer(r.controller.adoptions));
    add("history spawns", integer(r.controller.history_spawns));
    add("frames captured / completed",
        integer(r.frames_captured) + " / " +
            integer(r.controller.frames_completed));
    if (r.frames_scored > 0) {
        add("mean PSNR", util::Table::num(r.mean_psnr, 1) + " dB over " +
                             integer(r.frames_scored) + " frames");
        add("mean coverage",
            util::Table::num(100.0 * r.mean_coverage, 1) + " %");
    }
    add("backup energy",
        util::Table::num(r.backup_energy_nj / 1000.0, 1) + " uJ");
    add("retention violations",
        integer(r.retention_failures.totalViolations()));
    table.print();

    if (want_trace) {
        const std::string path = flags.text("trace-out");
        writeOrDie(path, tracer.toChromeTraceJson(), nullptr);
        std::printf("chrome trace written to %s (%zu events",
                    path.c_str(), tracer.size());
        if (tracer.dropped() > 0)
            std::printf(", %" PRIu64 " dropped", tracer.dropped());
        std::printf(")\n");
    }
    if (want_metrics) {
        const std::string path = flags.text("metrics");
        writeOrDie(path, observer.registry.toJson(), "metrics");
        return reportViolations(
            obs::verifySimMetricIdentities(observer.registry));
    }
    return 0;
}

int
cmdReport(const Flags &flags)
{
    const fleet::CampaignSpec spec = fleet::campaignFromFlags(flags);
    sim::SimConfig cfg = fleet::campaignConfig(spec);
    obs::RunReport report;
    if (flags.has("from-metrics")) {
        // Offline mode: re-derive the report from a saved metrics JSON
        // (e.g. one written by `run --metrics` or `sweep --metrics`).
        const std::string path = flags.text("from-metrics");
        obs::MetricsRegistry registry;
        std::string error;
        if (!obs::MetricsRegistry::fromJson(readOrDie(path), &registry,
                                            &error))
            util::fatal("could not parse '%s': %s", path.c_str(),
                        error.c_str());
        report = obs::buildRunReport(registry);
    } else {
        const std::string name = flags.text("kernel", "sobel");
        const kernels::Kernel kernel = kernels::makeKernel(name);
        const trace::PowerTrace t = loadOrGenerateTrace(flags, spec);
        const auto capacity = flags.num<std::size_t>("flight-capacity", 1024);
        obs::Observer observer;
        obs::FlightRecorder flight(capacity, capacity);
        observer.flight = &flight;
        cfg.obs = &observer;

        sim::SystemSimulator s(kernel, &t, cfg);
        const sim::SimResult r = s.run();
        report = obs::buildRunReport(
            observer.registry, &flight,
            {{name, r.forward_progress, r.main_instructions,
              r.controller.frames_completed, r.consumed_energy_nj}});
    }
    std::fputs(report.renderText().c_str(), stdout);
    if (flags.has("out"))
        writeOrDie(flags.text("out"), report.toJson(), "report");
    return reportViolations(report.identity_violations);
}

/** Whether a sweep/serve run prints a run report, which needs the
 *  per-job metrics collected. */
bool
wantsReport(const Flags &flags)
{
    return flags.has("report") || flags.has("report-out");
}

/**
 * Emit a (possibly fleet-folded) sweep report: results table plus the
 * optional --out CSV, --metrics JSON, and --report/--report-out run
 * report, then the failure summary. Shared verbatim by `sweep` and
 * `serve`, so the fleet's outputs are byte-identical to the serial
 * run's by construction. With --report every stdout byte must be
 * independent of the parallelism (and of sweep-vs-fleet), so the
 * header drops the worker/wall-clock info.
 */
int
emitSweepOutputs(const runner::SweepReport &report, const Flags &flags)
{
    const bool want_report = wantsReport(flags);
    util::Table table(
        want_report ? util::format("sweep: %zu jobs", report.results.size())
                    : util::format("sweep: %zu jobs on %u workers, %.1f s "
                                   "wall",
                                   report.results.size(), report.jobs_used,
                                   report.wall_seconds));
    table.setHeader({"kernel", "trace", "variant", "FP (all lanes)",
                     "on-time", "backups", "mean PSNR", "status"});
    util::CsvWriter csv;
    csv.setHeader({"kernel", "trace", "variant", "forward_progress",
                   "on_time_fraction", "backups", "mean_psnr",
                   "status"});
    for (const auto &jr : report.results) {
        const sim::SimResult &r = jr.result;
        const std::string psnr =
            jr.ok && r.frames_scored > 0
                ? util::Table::num(r.mean_psnr, 1) + " dB"
                : "-";
        table.addRow(
            {jr.spec.kernel, jr.spec.trace_name, jr.spec.variant,
             jr.ok ? integer(r.forward_progress) : "-",
             jr.ok ? util::Table::num(100.0 * r.on_time_fraction, 1) + " %"
                   : "-",
             jr.ok ? integer(r.backups) : "-", psnr,
             jr.ok ? "ok" : "FAILED"});
        csv.addRow({jr.spec.kernel, jr.spec.trace_name, jr.spec.variant,
                    jr.ok ? std::to_string(r.forward_progress) : "",
                    jr.ok ? util::Table::num(r.on_time_fraction, 6) : "",
                    jr.ok ? std::to_string(r.backups) : "",
                    jr.ok ? util::Table::num(r.mean_psnr, 3) : "",
                    jr.ok ? "ok" : "failed"});
    }
    table.print();
    if (flags.has("out"))
        writeOrDie(flags.text("out"), csv.render(), "results");
    if (flags.has("metrics"))
        writeOrDie(flags.text("metrics"), report.mergedMetrics().toJson(),
                   "merged metrics");
    if (want_report) {
        const obs::RunReport run_report = obs::buildRunReport(
            report.mergedMetrics(), nullptr, report.kernelEfficiency());
        std::fputs(run_report.renderText().c_str(), stdout);
        if (flags.has("report-out"))
            writeOrDie(flags.text("report-out"), run_report.toJson(),
                       "report");
    }
    if (!report.allOk()) {
        std::fputs(report.failureReport().c_str(), stderr);
        std::fprintf(stderr, "%zu of %zu jobs failed after retry\n",
                     report.failureCount(), report.results.size());
        return 1;
    }
    return 0;
}

/**
 * `sweep --arena`: run @p spec's campaign through the journal a
 * fleet::ResultFolder keeps in the --arena directory, exactly as `serve`
 * keeps its fleet dir's — bind it, fold what it holds, run only the
 * rest and fold each job as it finishes. Each job folds as the RESULT
 * frame it would travel as, so the journal's bytes are `serve`'s.
 */
runner::SweepReport
journaledSweep(const fleet::CampaignSpec &campaign, runner::SweepSpec spec,
               runner::SweepRunner::JobFn body, const Flags &flags)
{
    using clock = std::chrono::steady_clock;

    // The fingerprint covers the expanded jobs (kernels, trace bytes,
    // seed tree) plus every flag that shapes a job's SimConfig, so a
    // resume with different flags is refused instead of silently
    // mixing results.
    const std::string dir = flags.text("arena");
    const std::vector<runner::JobSpec> jobs = runner::expandSweep(spec);
    const std::string fp = fleet::campaignFingerprint(campaign, spec, jobs);
    std::unique_ptr<runner::SweepJournal> journal;
    try {
        journal = runner::SweepJournal::open(dir);
    } catch (const std::exception &e) {
        util::fatal("cannot open arena '%s': %s", dir.c_str(), e.what());
    }
    const bool resuming = journal->bound();
    if (resuming && !flags.has("resume"))
        util::fatal("arena '%s' already holds a campaign (%zu of %zu "
                    "jobs done); pass --resume to continue it or use a "
                    "fresh directory",
                    dir.c_str(), journal->completedCount(),
                    journal->jobsTotal());
    // keepJournal refuses this too; the sweep names the flags as the
    // likely cause.
    if (resuming && journal->boundFingerprint() != fp)
        util::fatal("arena '%s' holds a different campaign (fingerprint "
                    "%s, this sweep is %s); re-run with the original "
                    "flags or use a fresh directory",
                    dir.c_str(), journal->boundFingerprint().c_str(),
                    fp.c_str());
    fleet::ResultFolder folder(jobs);
    std::string error;
    if (!folder.keepJournal(journal.get(), fp, &error))
        util::fatal("arena '%s' %s; use a fresh directory", dir.c_str(),
                    error.c_str());
    if (resuming)
        std::fprintf(stderr, "arena: resuming %zu of %zu jobs done\n",
                     folder.filledCount(), folder.jobCount());

    // --kill-after N: SIGKILL ourselves once N jobs have been journaled
    // this session — the harness for the kill-and-resume recipe
    // (EXPERIMENTS.md).
    const std::size_t kill_after =
        flags.has("kill-after") ? flags.num<std::size_t>("kill-after", 1)
                                : 0;
    // --jobs is at least 1, so the pool runs exactly spec.jobs threads.
    const auto threads = static_cast<unsigned>(spec.jobs);
    const auto start = clock::now();
    runner::SweepRunner sweep(std::move(spec), std::move(body));
    if (!folder.runUnfolded(
            sweep,
            [&folder, kill_after] {
                if (kill_after > 0 && folder.recordedCount() >= kill_after)
                    std::raise(SIGKILL);
            },
            &error))
        util::fatal("arena '%s': %s", dir.c_str(), error.c_str());
    const double wall_seconds =
        std::chrono::duration<double>(clock::now() - start).count();

    // Journal session stats go to stderr: stdout must stay byte-
    // identical between a fresh run and a resumed one.
    const runner::JournalStats st = journal->stats();
    std::fprintf(stderr,
                 "arena: %" PRIu64 " records (%" PRIu64
                 " bytes) appended; replayed %" PRIu64
                 " records, discarded %" PRIu64
                 " torn bytes, recovery %.2f ms\n",
                 st.appended_records, st.appended_bytes,
                 st.replayed_records, st.discarded_tail_bytes,
                 st.recovery_ms);
    return folder.takeReport(wall_seconds, threads);
}

int
cmdSweep(const Flags &flags)
{
    if (flags.has("kill-after") && !flags.has("arena"))
        flags.fail("--kill-after requires --arena");
    if (flags.has("resume") && !flags.has("arena"))
        flags.fail("--resume requires --arena");
    const fleet::CampaignSpec campaign = fleet::campaignFromFlags(flags);
    runner::SweepSpec spec = fleet::buildSweepSpec(
        campaign, flags.has("metrics") || wantsReport(flags));
    spec.jobs = flags.num<int>("jobs", runner::ThreadPool::defaultThreads());

    runner::SweepRunner::JobFn body = &runner::SweepRunner::simJob;
    if (flags.has("inject-failure")) {
        const auto victim = flags.num<std::size_t>("inject-failure", 0);
        body = [victim](const runner::JobSpec &job,
                        const trace::PowerTrace &trace,
                        util::Rng &rng) -> sim::SimResult {
            if (job.index == victim)
                throw std::runtime_error("injected failure (testing)");
            return runner::SweepRunner::simJob(job, trace, rng);
        };
    }
    if (flags.has("arena"))
        return emitSweepOutputs(
            journaledSweep(campaign, std::move(spec), std::move(body),
                           flags),
            flags);
    return emitSweepOutputs(
        runner::SweepRunner(std::move(spec), std::move(body)).run(), flags);
}

/** Absolute path of the running binary: `serve` respawns itself as
 *  `work` processes, so the fleet always runs one build. */
std::string
selfExePath()
{
    std::error_code ec;
    const auto path = std::filesystem::read_symlink("/proc/self/exe", ec);
    if (ec)
        util::fatal("cannot resolve /proc/self/exe: %s",
                    ec.message().c_str());
    return path.string();
}

int
cmdServe(const Flags &flags)
{
    fleet::ServeOptions opt;
    opt.campaign_path = flags.operand(0);
    opt.fleet_dir = flags.text("fleet-dir", opt.campaign_path + ".fleet");
    opt.socket_path = flags.text("socket");
    opt.nvpsim_path = selfExePath();
    opt.workers = flags.num("workers", 1);
    // Its range excludes 0, which would silently mean "never detect a
    // stalled worker".
    opt.heartbeat_timeout_s = flags.num("heartbeat-timeout", 120.0);
    opt.collect_metrics = flags.has("metrics") || wantsReport(flags);
    // Bare `--status-socket` means the default path beside the campaign
    // socket.
    if (flags.has("status-socket"))
        opt.status_socket = flags.text("status-socket").empty()
                                ? opt.fleet_dir + "/status.sock"
                                : flags.text("status-socket");
    opt.trace_out = flags.text("trace-out");
    opt.kill_worker_after = flags.num<std::size_t>("kill-worker-after", 0);

    const fleet::FleetOutcome outcome = fleet::serveCampaign(opt);

    // Scheduling telemetry goes to stderr (and --fleet-metrics): the
    // campaign's stdout/file outputs must stay byte-identical to the
    // serial sweep, independent of worker count and crash history.
    const obs::MetricsRegistry &fm = outcome.fleet_metrics;
    std::fprintf(
        stderr,
        "fleet: %" PRIu64 " shard dispatches (%" PRIu64 " reassigned, %" PRIu64
        " retried), %" PRIu64 " workers spawned (%" PRIu64 " lost), %" PRIu64
        " result bytes merged\n",
        fm.counterValue(obs::kFleetShardsDispatched),
        fm.counterValue(obs::kFleetShardsReassigned),
        fm.counterValue(obs::kFleetShardsRetried),
        fm.counterValue(obs::kFleetWorkersSpawned),
        fm.counterValue(obs::kFleetWorkersLost),
        fm.counterValue(obs::kFleetMergeBytes));
    // Fleet telemetry snapshot: the fleet.* registry wrapped in its
    // own document (separate "fleet" top-level key, tagged with the
    // campaign fingerprint). Written to --fleet-metrics, or defaulted
    // to a sibling of --metrics — NEVER folded into the campaign
    // metrics document itself, which must stay byte-identical to the
    // serial `nvpsim sweep`.
    std::string fleet_metrics_path = flags.text("fleet-metrics");
    if (fleet_metrics_path.empty() && flags.has("metrics"))
        fleet_metrics_path = flags.text("metrics") + ".fleet.json";
    if (!fleet_metrics_path.empty()) {
        obs::JsonValue registry_json;
        std::string parse_error;
        if (!obs::parseJson(outcome.fleet_metrics.toJson(),
                            &registry_json, &parse_error))
            util::fatal("fleet metrics registry did not serialize: %s",
                        parse_error.c_str());
        obs::JsonValue doc = obs::JsonValue::object();
        doc.set("schema",
                obs::JsonValue::of(std::string("inc-fleet-telemetry-"
                                               "v1")));
        doc.set("campaign", obs::JsonValue::of(outcome.fingerprint));
        doc.set("fleet", std::move(registry_json));
        writeOrDie(fleet_metrics_path, doc.dump() + "\n", nullptr);
        std::fprintf(stderr, "fleet telemetry written to %s\n",
                     fleet_metrics_path.c_str());
    }

    return emitSweepOutputs(outcome.report, flags);
}

int
cmdWork(const Flags &flags)
{
    fleet::WorkerOptions opt;
    opt.socket_path = flags.text("socket");
    opt.campaign_path = flags.text("campaign");
    if (opt.socket_path.empty() || opt.campaign_path.empty())
        flags.fail("--socket and --campaign are required (normally "
                   "spawned by `nvpsim serve`)");
    opt.collect_metrics = flags.num("collect-metrics", 0) != 0;
    opt.kill_after = flags.num<std::size_t>("kill-after", 0);
    return fleet::runWorker(opt);
}

double
statusNum(const obs::JsonValue &doc, const char *key, double fallback)
{
    const obs::JsonValue *v = doc.find(key);
    return v != nullptr && v->isNumber() ? v->number() : fallback;
}

std::string
statusStr(const obs::JsonValue &doc, const char *key)
{
    const obs::JsonValue *v = doc.find(key);
    return v != nullptr && v->isString() ? v->string() : std::string();
}

/** Render one inc-fleet-status-v1 snapshot as human-readable text. */
void
renderStatus(const obs::JsonValue &doc)
{
    const double jobs_done = statusNum(doc, "jobs_done", 0);
    const double jobs_total = statusNum(doc, "jobs_total", 0);
    const double throughput = statusNum(doc, "throughput_jps", 0);
    const double eta = statusNum(doc, "eta_s", -1);
    std::printf("fleet status: %.0f/%.0f jobs (%.1f %%), %.0f/%.0f "
                "shards, %.2f jobs/s",
                jobs_done, jobs_total,
                jobs_total > 0 ? 100.0 * jobs_done / jobs_total : 0.0,
                statusNum(doc, "shards_completed", 0),
                statusNum(doc, "shards_planned", 0), throughput);
    if (eta >= 0)
        std::printf(", ETA %.1f s", eta);
    std::printf("\ncampaign %s, %.1f s elapsed\n",
                statusStr(doc, "fingerprint").c_str(),
                statusNum(doc, "elapsed_s", 0));

    const obs::JsonValue *workers = doc.find("workers");
    if (workers != nullptr && workers->isArray()) {
        util::Table table("workers");
        table.setHeader({"pid", "gen", "health", "heartbeat", "shard",
                         "progress", "job"});
        for (const auto &row : workers->items()) {
            const double age = statusNum(row, "heartbeat_age_s", -1);
            const double shard = statusNum(row, "shard", -1);
            table.addRow(
                {integer(statusNum(row, "pid", 0)),
                 integer(statusNum(row, "generation", 0)),
                 statusStr(row, "health"),
                 age >= 0 ? util::Table::num(age, 1) + " s" : "-",
                 shard >= 0 ? integer(shard) : "-",
                 util::format(
                     "%.0f/%.0f", statusNum(row, "shard_done", 0),
                     statusNum(row, "shard_assigned", 0)),
                 statusStr(row, "job")});
        }
        table.print();
    }

    const obs::JsonValue *live = doc.find("live");
    if (live != nullptr && live->isObject() &&
        live->find("outage_p50_ms") != nullptr) {
        std::printf("live outage percentiles: p50 %.1f ms, p95 %.1f "
                    "ms, p99 %.1f ms (%.0f backups, %.0f restores)\n",
                    statusNum(*live, "outage_p50_ms", 0),
                    statusNum(*live, "outage_p95_ms", 0),
                    statusNum(*live, "outage_p99_ms", 0),
                    statusNum(*live, "backups_committed", 0),
                    statusNum(*live, "restores", 0));
    }
}

int
cmdStatus(const Flags &flags)
{
    std::string path = flags.operand(0);
    if (std::filesystem::is_directory(path))
        path += "/status.sock"; // a fleet dir: the default endpoint
    std::string error;
    int fd = fleet::connectUnix(path, &error);
    const auto fail = [&fd](const std::string &message) {
        std::fprintf(stderr, "nvpsim status: %s\n", message.c_str());
        if (fd >= 0)
            ::close(fd);
        fd = -1;
        return 1;
    };
    if (fd < 0)
        return fail("cannot connect to '" + path + "': " + error);

    const bool watch = flags.has("watch");
    const bool as_json = flags.has("json");
    fleet::MessageReader reader;
    char buffer[64 * 1024];
    std::string snapshot;
    bool saw_frame = false;
    // The coordinator sends one STATE immediately on accept, then a
    // throttled stream, then a final jobs_done == jobs_total frame
    // before closing. Plain mode answers from the first frame;
    // --watch follows the stream to completion.
    while (true) {
        fleet::Message message;
        const bool have = reader.next(&message, &error);
        if (!have && !error.empty())
            return fail(error);
        if (!have) {
            const long n = fleet::readSome(fd, buffer, sizeof(buffer));
            if (n == 0)
                break; // campaign finished (or coordinator died)
            if (n < 0)
                return fail("socket read failed");
            reader.feed(buffer, static_cast<std::size_t>(n));
            continue;
        }
        if (!fleet::decodeState(message, &snapshot, &error))
            return fail(error);
        saw_frame = true;
        if (watch && as_json) {
            // One canonical-JSON document per line: the streaming
            // form tests and dashboards consume.
            std::fputs((snapshot + "\n").c_str(), stdout);
            std::fflush(stdout);
        }
        if (!watch)
            break;
    }
    ::close(fd);
    fd = -1;
    if (!saw_frame)
        return fail("no snapshot received from '" + path + "'");
    obs::JsonValue doc;
    if (!obs::parseJson(snapshot, &doc, &error))
        return fail("bad snapshot: " + error);
    if (!as_json)
        renderStatus(doc);
    else if (!watch)
        std::fputs((snapshot + "\n").c_str(), stdout);
    // A finished campaign always ends its stream on jobs_done ==
    // jobs_total; any other last frame means the coordinator is gone.
    const double jobs_done = statusNum(doc, "jobs_done", -1);
    const double jobs_total = statusNum(doc, "jobs_total", -1);
    if (watch && jobs_done != jobs_total)
        return fail(util::format("the stream ended at %.0f of %.0f jobs "
                                 "done, before the campaign finished",
                                 jobs_done, jobs_total));
    return 0;
}

int
cmdAsm(const Flags &flags)
{
    const std::string path = flags.operand(0);
    // The front end accepts both plain assembly and the Sec. 5
    // "#pragma ac" annotated dialect.
    const core::PragmaParseResult result =
        core::parseAnnotated(readOrDie(path));
    if (!result.ok)
        util::fatal("%s: %s", path.c_str(), result.error.c_str());
    const isa::Program &program = result.annotated.program;
    std::printf("%zu instructions\n%s", program.size(),
                isa::disassemble(program).c_str());
    for (const auto &[name, region] : result.annotated.regions) {
        std::printf(".region %s at 0x%x, %u bytes\n", name.c_str(),
                    region.address, region.size);
    }
    for (const auto &d : result.annotated.incidental) {
        std::printf("incidental(%s, %d, %d, %s)\n", d.region.c_str(),
                    d.min_bits, d.max_bits,
                    nvm::policyName(d.policy).c_str());
    }
    if (result.annotated.recover_register >= 0) {
        std::printf("incidental_recover_from(r%d)\n",
                    result.annotated.recover_register);
    }

    if (flags.has("run")) {
        util::Rng rng(1);
        nvp::DataMemory mem(rng.split());
        result.annotated.applyRegions(mem);
        nvp::Core core(&program, &mem, {}, rng.split());
        const long steps = flags.num("steps", 100000L);
        long executed = 0;
        while (!core.halted() && executed < steps) {
            core.step();
            ++executed;
        }
        std::printf("executed %ld instructions; %s\n", executed,
                    core.halted() ? "halted" : "step limit reached");
        for (int r = 1; r < isa::kNumRegs; ++r) {
            if (core.regs().read(0, r) != 0)
                std::printf("  r%-2d = %u\n", r, core.regs().read(0, r));
        }
    }
    return 0;
}

int
cmdKernels(const Flags &)
{
    util::Table table("registered kernels");
    table.setHeader({"name", "instructions", "frame", "in ring",
                     "out ring", "adoption-safe"});
    for (const auto &name : kernels::kernelNames()) {
        const kernels::Kernel k = kernels::makeKernel(name);
        table.addRow(
            {k.name, integer(k.program.size()),
             util::format("%dx%d", k.width, k.height),
             util::format("%d x %u B", k.layout.in_slots,
                          k.layout.in_bytes),
             util::format("%d x %u B", k.layout.out_slots,
                          k.layout.out_bytes),
             k.adoption_safe ? "yes" : "no (memory scratch)"});
    }
    table.print();
    return 0;
}

int
cmdFuzz(const Flags &flags)
{
    if (flags.has("replay")) {
        check::TrialSpec spec;
        if (!check::loadBundle(flags.text("replay"), &spec))
            util::fatal("could not load repro bundle '%s'",
                        flags.text("replay").c_str());
        const check::Divergence div = check::runTrial(spec);
        if (div.violated) {
            std::printf("replay: VIOLATION invariant=%s frame=%u "
                        "byte=%zu expected=%d actual=%d\n  %s\n",
                        div.invariant.c_str(), div.frame, div.byte,
                        div.expected, div.actual, div.detail.c_str());
            return 1;
        }
        std::printf("replay: clean (seed=%llu mode=%s)\n",
                    static_cast<unsigned long long>(spec.seed),
                    check::modeName(spec.mode));
        return 0;
    }

    check::CheckConfig cfg;
    cfg.trials = flags.num("trials", 200);
    cfg.master_seed = flags.num<std::uint64_t>("seed", 1);
    cfg.jobs = flags.num<unsigned>("jobs", 0);
    cfg.trace_samples = flags.num<std::size_t>("samples", 6000);
    cfg.repro_dir = flags.text("repro-dir");
    cfg.minimize = flags.has("minimize");
    const std::string bug = flags.text("inject-bug", "none");
    if (bug == "leaky-backup" || bug == "leaky_backup")
        cfg.inject = check::BugKind::leaky_backup;
    else if (bug != "none")
        flags.fail("unknown --inject-bug '" + bug +
                   "' (none, leaky-backup)");
    cfg.engine_diff = flags.has("engine-diff");
    cfg.mode_filter = flags.text("modes");

    const check::CheckReport report = check::runCheck(cfg);
    std::printf("fuzz: %s\n", report.summary().c_str());
    for (const auto &failure : report.failures) {
        if (!failure.bundle_dir.empty())
            std::printf("  repro bundle: %s\n",
                        failure.bundle_dir.c_str());
    }
    return report.allOk() ? 0 : 1;
}

/** One subcommand: its name, required positional operands, flag
 *  table and entry point. */
struct Command
{
    const char *name;
    std::vector<std::string> operands;
    std::vector<Flag> flags;
    int (*run)(const Flags &);
};

/** Every subcommand's flag table: the one declaration of which flags
 *  each subcommand accepts. */
std::vector<Command>
commands()
{
    using K = FlagKind;
    const double int_max = util::kMaxInt;
    const auto join = [](std::vector<Flag> a, const std::vector<Flag> &b) {
        a.insert(a.end(), b.begin(), b.end());
        return a;
    };
    const Flag profile{"profile", K::integer, 1, 5};
    // run and report: a trace plus every campaign knob but the grid;
    // trace: only the knobs that shape a synthesized trace.
    const std::vector<Flag> sim = join({{"kernel"}, {"trace"}, profile},
                                       fleet::campaignFlags(false));
    std::vector<Flag> trace = {{"trace"}, profile, {"out"}};
    for (const Flag &flag : sim) {
        if (flag.name == "seconds" || flag.name == "seed")
            trace.push_back(flag);
    }
    // What emitSweepOutputs reads, for sweep and serve alike.
    const std::vector<Flag> outputs = {
        {"out"}, {"metrics"}, {"report", K::toggle}, {"report-out"}};
    return {
        {"trace", {}, trace, cmdTrace},
        {"run", {}, join(sim, {{"metrics"}, {"trace-out"}}), cmdRun},
        {"sweep", {},
         join(join(fleet::campaignFlags(true), outputs),
              {{"jobs", K::integer, 1, int_max}, {"arena"},
               {"inject-failure", K::integer}, {"resume", K::toggle},
               {"kill-after", K::integer, 1}}),
         cmdSweep},
        {"serve", {"CAMPAIGN.json"},
         join(outputs,
              {{"workers", K::integer, 1, int_max}, {"fleet-dir"},
               {"socket"}, {"fleet-metrics"},
               {"heartbeat-timeout", K::number, 0.001, 1e9},
               {"status-socket", K::optional}, {"trace-out"},
               {"kill-worker-after", K::integer}}),
         cmdServe},
        {"work", {},
         {{"socket"}, {"campaign"},
          {"collect-metrics", K::integer, 0, 1},
          {"kill-after", K::integer}},
         cmdWork},
        {"status", {"SOCKET|FLEET-DIR"},
         {{"json", K::toggle}, {"watch", K::toggle}}, cmdStatus},
        {"report", {},
         join(sim, {{"out"}, {"from-metrics"},
                    {"flight-capacity", K::integer}}),
         cmdReport},
        {"fuzz", {},
         {{"trials", K::integer, 1, int_max}, {"seed", K::integer},
          {"jobs", K::integer, 0, int_max}, {"samples", K::integer, 100},
          {"repro-dir"}, {"minimize", K::toggle}, {"replay"},
          {"inject-bug"}, {"engine-diff", K::toggle}, {"modes"}},
         cmdFuzz},
        {"asm", {"FILE.s"}, {{"run", K::toggle}, {"steps", K::integer}},
         cmdAsm},
        {"kernels", {}, {}, cmdKernels},
    };
}

} // namespace

int
main(int argc, char **argv)
{
    std::string names;
    for (const Command &command : commands()) {
        if (argc >= 2 && argv[1] == std::string(command.name))
            return command.run(Flags(std::string("nvpsim ") + argv[1],
                                     command.flags, command.operands,
                                     {argv + 2, argv + argc}));
        names += (names.empty() ? "" : "|") + std::string(command.name);
    }
    if (argc >= 2)
        std::fprintf(stderr, "unknown subcommand '%s'\n", argv[1]);
    std::fprintf(stderr,
                 "usage: nvpsim <%s> [flags]\n"
                 "`nvpsim CMD --help` rejects the unknown flag and lists "
                 "CMD's flags\n",
                 names.c_str());
    return 1;
}
