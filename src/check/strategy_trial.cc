#include "check/strategy_trial.h"

#include <unistd.h>

#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "arena/arena.h"
#include "arena/backend.h"
#include "check/program_fuzzer.h"
#include "obs/observer.h"
#include "obs/schema.h"
#include "sim/result_io.h"
#include "sim/strategy/image_store.h"
#include "sim/strategy/strategy.h"
#include "sim/system_sim.h"

namespace inc::check
{

namespace
{

namespace fs = std::filesystem;

Divergence
strategyDivergence(const std::string &invariant,
                   const std::string &detail)
{
    Divergence d;
    d.violated = true;
    d.invariant = invariant;
    d.detail = detail;
    return d;
}

/** Everything one strategy run leaves behind for the cross-checks. */
struct StrategyRun
{
    std::string result;          ///< serialized SimResult
    sim::StrategyStats stats;
    std::string metrics_problem; ///< first identity violation, "" = ok
    bool image_ok = false;
    std::string image_why;
    bool has_committed = false;
    std::uint64_t committed_seq = 0;
    std::size_t state_bytes = 0;
};

/**
 * The shared trial config: full incidental machinery at dynamic bits
 * (the richest trajectory — adoption, history spawning and the ALU
 * noise model are all seeded from the spec, so every re-run over the
 * same config is bit-identical; only the strategy overlay varies).
 */
sim::SimConfig
trialConfig(const TrialSpec &spec)
{
    sim::SimConfig cfg;
    cfg.bits.mode = approx::ApproxMode::dynamic;
    cfg.bits.min_bits = spec.bits;
    cfg.bits.max_bits = 8;
    cfg.controller.backup_policy = nvm::RetentionPolicy::full;
    cfg.core.approx_alu = true;
    cfg.core.approx_mem = true;
    cfg.score_quality = false;
    cfg.frame_period_tenth_ms = spec.frame_period;
    cfg.seed = spec.seed;
    return cfg;
}

StrategyRun
runOne(const kernels::Kernel &kernel, const trace::PowerTrace &power,
       const sim::SimConfig &base, sim::StrategyKind kind,
       arena::PersistenceBackend *persistence)
{
    sim::SimConfig cfg = base;
    cfg.strategy = kind;
    cfg.persistence = persistence;
    obs::Observer observer;
    cfg.obs = &observer;

    sim::SystemSimulator sim(kernel, &power, cfg);
    StrategyRun run;
    run.result = sim::serializeResult(sim.run());
    run.stats = sim.strategy().stats();
    const std::vector<std::string> problems =
        obs::verifySimMetricIdentities(observer.registry);
    if (!problems.empty())
        run.metrics_problem = problems.front();
    run.image_ok = sim.strategy().verifyImage(&run.image_why);
    run.has_committed = sim.strategy().image().hasCommitted();
    run.committed_seq = sim.strategy().image().committedSeq();
    run.state_bytes = sim.strategy().image().stateBytes();
    return run;
}

/** First differing line of two serialized results (for the report). */
std::string
firstDiffLine(const std::string &want, const std::string &got)
{
    std::istringstream want_lines(want);
    std::istringstream got_lines(got);
    std::string want_line, got_line;
    while (std::getline(want_lines, want_line) &&
           std::getline(got_lines, got_line)) {
        if (want_line != got_line)
            return "'" + got_line + "' vs baseline '" + want_line + "'";
    }
    return "(length mismatch)";
}

/** Scratch directory unique to this (process, trial, strategy). */
std::string
trialDir(const TrialSpec &spec, const char *which)
{
    std::ostringstream name;
    name << "inc-strategy-fuzz-" << ::getpid() << "-" << spec.seed
         << "-" << spec.index << "-" << which;
    return (fs::temp_directory_path() / name.str()).string();
}

/**
 * The persistence leg: run @p kind arena-backed, require the result to
 * still match the heap baseline, then close and reopen the arena and
 * require the committed "ckpt" image to have survived — same sequence
 * number, matching CRC.
 */
Divergence
runArenaLeg(const kernels::Kernel &kernel,
            const trace::PowerTrace &power, const sim::SimConfig &base,
            sim::StrategyKind kind, const std::string &baseline,
            const std::string &dir)
{
    StrategyRun run;
    {
        std::unique_ptr<arena::Arena> store = arena::Arena::open(dir);
        arena::ArenaBackend backend(store.get());
        run = runOne(kernel, power, base, kind, &backend);
    } // no shutdown path: recovery must find the committed image

    const char *name = sim::strategyName(kind);
    if (run.result != baseline)
        return strategyDivergence(
            "strategy_arena_result",
            std::string("arena-backed ") + name +
                " diverged from the heap baseline: " +
                firstDiffLine(baseline, run.result));
    if (!run.image_ok)
        return strategyDivergence("strategy_arena_image",
                                  std::string(name) + ": " +
                                      run.image_why);

    std::unique_ptr<arena::Arena> store = arena::Arena::open(dir);
    arena::ArenaBackend backend(store.get());
    sim::ImageStore image(&backend, "ckpt", run.state_bytes,
                          sim::ImageStore::kMetaBytesCrc);
    if (image.warmStart() != run.has_committed)
        return strategyDivergence(
            "strategy_arena_reopen",
            std::string(name) + ": reopened warmStart=" +
                (image.warmStart() ? "true" : "false") +
                " but the run " +
                (run.has_committed ? "committed" : "never committed"));
    if (image.committedSeq() != run.committed_seq)
        return strategyDivergence(
            "strategy_arena_reopen",
            std::string(name) + ": reopened committed seq " +
                std::to_string(image.committedSeq()) + " != " +
                std::to_string(run.committed_seq));
    std::string why;
    if (!image.verifyCommitted(&why))
        return strategyDivergence("strategy_arena_crc",
                                  std::string(name) + ": " + why);
    return {};
}

} // namespace

Divergence
runStrategyTrial(const TrialSpec &spec)
{
    ProgramFuzzer fuzzer;
    FuzzedProgram fp =
        fuzzer.generate(spec.program_seed, 0, false, spec.body_ops);
    const trace::PowerTrace power = buildTrace(spec);
    const sim::SimConfig base = trialConfig(spec);

    // Heap legs: active first (the baseline), then every other
    // registered strategy over the identical spec. Each is bound to a
    // HeapBackend so its image materializes and verifies a real CRC,
    // and re-run unbound, where the inert store must account the same.
    std::vector<StrategyRun> runs;
    for (const sim::StrategyKind kind : sim::allStrategies()) {
        arena::HeapBackend heap;
        runs.push_back(runOne(fp.kernel, power, base, kind, &heap));
        const StrategyRun unbound =
            runOne(fp.kernel, power, base, kind, nullptr);
        if (unbound.result != runs.back().result ||
            !(unbound.stats == runs.back().stats) ||
            unbound.has_committed != runs.back().has_committed ||
            unbound.committed_seq != runs.back().committed_seq)
            return strategyDivergence(
                "strategy_unbound",
                std::string(sim::strategyName(kind)) +
                    ": unbound accounting differs from the heap-bound "
                    "run (backup bytes " +
                    std::to_string(unbound.stats.backup_bytes) +
                    " vs " +
                    std::to_string(runs.back().stats.backup_bytes) +
                    ", restore bytes " +
                    std::to_string(unbound.stats.restore_bytes) +
                    " vs " +
                    std::to_string(runs.back().stats.restore_bytes) +
                    ")");
    }
    const StrategyRun &active = runs.front();

    for (std::size_t i = 0; i < runs.size(); ++i) {
        const sim::StrategyKind kind = sim::allStrategies()[i];
        const char *name = sim::strategyName(kind);
        const StrategyRun &run = runs[i];
        if (run.result != active.result)
            return strategyDivergence(
                "strategy_result",
                std::string("SimResult diverged between strategies: ") +
                    name + " " +
                    firstDiffLine(active.result, run.result));
        if (!run.metrics_problem.empty())
            return strategyDivergence("strategy_metrics",
                                      std::string(name) + ": " +
                                          run.metrics_problem);
        if (!run.image_ok)
            return strategyDivergence("strategy_image",
                                      std::string(name) + ": " +
                                          run.image_why);
        // Any strategy's image either never committed or committed as
        // often as the shared trajectory backed up (plus snapshots).
        if (run.has_committed !=
            (run.stats.backups + run.stats.snapshots > 0))
            return strategyDivergence(
                "strategy_commits",
                std::string(name) + ": hasCommitted=" +
                    (run.has_committed ? "true" : "false") + " with " +
                    std::to_string(run.stats.backups) + " backups + " +
                    std::to_string(run.stats.snapshots) + " snapshots");
    }

    // The freezer backs up a subset of the words the baseline copies
    // wholesale; for the identical trajectory it can never write more.
    const StrategyRun &freezer =
        runs[static_cast<int>(sim::StrategyKind::freezer)];
    if (freezer.stats.backup_bytes > active.stats.backup_bytes)
        return strategyDivergence(
            "strategy_bytes",
            "freezer wrote " +
                std::to_string(freezer.stats.backup_bytes) +
                " backup bytes > active's full-image " +
                std::to_string(active.stats.backup_bytes));

    // Every third trial also proves the arena round-trip for the
    // full-image and dirty-word strategies.
    Divergence result;
    if (spec.index % 3 == 0) {
        const std::string active_dir = trialDir(spec, "active");
        const std::string freezer_dir = trialDir(spec, "freezer");
        std::error_code ec;
        fs::remove_all(active_dir, ec);
        fs::remove_all(freezer_dir, ec);
        try {
            result = runArenaLeg(fp.kernel, power, base,
                                 sim::StrategyKind::active,
                                 active.result, active_dir);
            if (!result.violated)
                result = runArenaLeg(fp.kernel, power, base,
                                     sim::StrategyKind::freezer,
                                     active.result, freezer_dir);
        } catch (const std::exception &e) {
            result = strategyDivergence("strategy_exception", e.what());
        }
        fs::remove_all(active_dir, ec);
        fs::remove_all(freezer_dir, ec);
    }
    return result;
}

} // namespace inc::check
