#include "check/strategy_trial.h"

#include <sstream>
#include <string>
#include <vector>

#include "check/program_fuzzer.h"
#include "obs/observer.h"
#include "obs/schema.h"
#include "sim/result_io.h"
#include "sim/strategy/strategy.h"
#include "sim/system_sim.h"

namespace inc::check
{

namespace
{

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
       const sim::SimConfig &base, sim::StrategyKind kind)
{
    sim::SimConfig cfg = base;
    cfg.strategy = kind;
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

} // namespace

Divergence
runStrategyTrial(const TrialSpec &spec)
{
    ProgramFuzzer fuzzer;
    FuzzedProgram fp =
        fuzzer.generate(spec.program_seed, 0, false, spec.body_ops);
    const trace::PowerTrace power = buildTrace(spec);
    const sim::SimConfig base = trialConfig(spec);

    // Active first (the baseline), then every other registered
    // strategy over the identical spec.
    std::vector<StrategyRun> runs;
    for (const sim::StrategyKind kind : sim::allStrategies())
        runs.push_back(runOne(fp.kernel, power, base, kind));
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
    return {};
}

} // namespace inc::check
