/**
 * Differential tier for the execution engines (DESIGN.md §11): the
 * predecoded fast path must be observationally identical to the
 * reference decode-as-you-go interpreter — not approximately, but
 * bit-for-bit.
 *
 * Every paper kernel runs under power profiles 1-3 in three system
 * configurations (baseline, incidental minbits=2, forced 4-lane SIMD)
 * through every engine in the registry (nvp::allExecEngines():
 * reference, predecoded); the serialized SimResult
 * (sim/result_io.h, hexfloat doubles, so byte equality is bit
 * equality) and the full metrics-registry JSON must match the
 * reference exactly. Any drift — an extra RNG draw, a reordered memory
 * access, a skipped capacitor check that was not provably dead — shows
 * up as a byte diff with the first divergent line in the failure
 * message. Iterating the registry means a future engine is diffed
 * automatically instead of being forgotten in a hardcoded list.
 *
 * The randomized companion to this fixed grid is the fuzzer's
 * engine-equivalence invariant: `nvpsim fuzz --engine-diff`.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "kernels/kernel.h"
#include "nvp/core.h"
#include "obs/observer.h"
#include "sim/result_io.h"
#include "sim/strategy/strategy.h"
#include "sim/system_sim.h"
#include "trace/trace_generator.h"

using namespace inc;

namespace
{

constexpr std::size_t kSamples = 2500; ///< 0.25 s of harvester time

sim::SimConfig
baselineConfig()
{
    sim::SimConfig cfg;
    cfg.bits.mode = approx::ApproxMode::precise;
    cfg.controller.roll_forward = false;
    cfg.controller.simd_adoption = false;
    cfg.controller.history_spawn = false;
    cfg.controller.process_newest_first = false;
    // Pin the sensor period: engine equivalence must not depend on the
    // calibration run, and a fixed period keeps the grid fast.
    cfg.frame_period_tenth_ms = 50.0;
    return cfg;
}

sim::SimConfig
incidentalConfig()
{
    sim::SimConfig cfg;
    cfg.bits.mode = approx::ApproxMode::dynamic;
    cfg.bits.min_bits = 2;
    cfg.bits.max_bits = 8;
    cfg.controller.backup_policy = nvm::RetentionPolicy::linear;
    cfg.frame_period_tenth_ms = 50.0;
    return cfg;
}

sim::SimConfig
simd4Config()
{
    sim::SimConfig cfg = incidentalConfig();
    cfg.controller.force_full_simd = true;
    return cfg;
}

struct NamedConfig
{
    const char *name;
    sim::SimConfig cfg;
};

std::vector<NamedConfig>
configs()
{
    return {{"baseline", baselineConfig()},
            {"incidental28", incidentalConfig()},
            {"simd4", simd4Config()}};
}

/** Serialized SimResult + metrics JSON of one run under @p engine. */
struct RunOut
{
    std::string result;
    std::string metrics;
};

RunOut
runEngine(const std::string &kernel, const trace::PowerTrace &power,
          sim::SimConfig cfg, nvp::ExecEngine engine)
{
    cfg.core.engine = engine;
    obs::Observer observer;
    cfg.obs = &observer;
    sim::SystemSimulator sim(kernels::makeKernel(kernel), &power, cfg);
    const sim::SimResult result = sim.run();
    return {sim::serializeResult(result), observer.registry.toJson()};
}

/** First line where @p a and @p b differ, for readable failures. */
std::string
firstDiffLine(const std::string &a, const std::string &b)
{
    std::size_t pos = 0;
    while (pos < a.size() && pos < b.size()) {
        const std::size_t ea = a.find('\n', pos);
        const std::size_t eb = b.find('\n', pos);
        const std::string la = a.substr(pos, ea - pos);
        const std::string lb = b.substr(pos, eb - pos);
        if (la != lb)
            return "reference '" + la + "' vs fast '" + lb + "'";
        if (ea == std::string::npos || eb == std::string::npos)
            break;
        pos = ea + 1;
    }
    return "length mismatch (" + std::to_string(a.size()) + " vs " +
           std::to_string(b.size()) + " bytes)";
}

class EngineDiff : public ::testing::TestWithParam<std::string>
{
};

TEST_P(EngineDiff, BitIdenticalAcrossProfilesAndConfigs)
{
    const std::string kernel = GetParam();
    for (int profile = 1; profile <= 3; ++profile) {
        trace::TraceGenerator gen(trace::paperProfile(profile), 99);
        const trace::PowerTrace power = gen.generate(kSamples);
        for (const NamedConfig &nc : configs()) {
            const RunOut ref = runEngine(
                kernel, power, nc.cfg, nvp::ExecEngine::reference);
            for (const nvp::ExecEngine engine :
                 nvp::allExecEngines()) {
                if (engine == nvp::ExecEngine::reference)
                    continue;
                SCOPED_TRACE(kernel + " profile " +
                             std::to_string(profile) + " " + nc.name +
                             " engine " + nvp::execEngineName(engine));
                const RunOut fast =
                    runEngine(kernel, power, nc.cfg, engine);
                EXPECT_EQ(ref.result, fast.result)
                    << "SimResult diverged: "
                    << firstDiffLine(ref.result, fast.result);
                EXPECT_EQ(ref.metrics, fast.metrics)
                    << "metrics JSON diverged between engines";
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, EngineDiff,
    ::testing::ValuesIn(kernels::kernelNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &c : name)
            if (c == '.')
                c = '_';
        return name;
    });

// ---- strategy x engine composition ------------------------------------

/**
 * `--strategy` composes with every registered engine: a crash-free run
 * is byte-identical across the full strategy x engine grid (strategies
 * are an observation overlay, engines are bit-exact replacements — the
 * product can introduce no drift either). Within one strategy the
 * metrics JSON, ckpt.* block included, must also match across engines.
 */
TEST(StrategyEngineDiff, StrategiesComposeWithEveryEngine)
{
    for (const char *kernel : {"sobel", "median"}) {
        for (int profile = 1; profile <= 2; ++profile) {
            trace::TraceGenerator gen(trace::paperProfile(profile), 99);
            const trace::PowerTrace power = gen.generate(kSamples);
            const sim::SimConfig base = incidentalConfig();
            const RunOut ref = runEngine(
                kernel, power, base, nvp::ExecEngine::reference);
            for (const sim::StrategyKind strategy :
                 sim::allStrategies()) {
                std::string strategy_metrics; // reference engine's
                for (const nvp::ExecEngine engine :
                     nvp::allExecEngines()) {
                    SCOPED_TRACE(std::string(kernel) + " profile " +
                                 std::to_string(profile) +
                                 " strategy " +
                                 sim::strategyName(strategy) +
                                 " engine " +
                                 nvp::execEngineName(engine));
                    sim::SimConfig cfg = base;
                    cfg.strategy = strategy;
                    const RunOut run =
                        runEngine(kernel, power, cfg, engine);
                    EXPECT_EQ(ref.result, run.result)
                        << "SimResult diverged: "
                        << firstDiffLine(ref.result, run.result);
                    if (strategy_metrics.empty())
                        strategy_metrics = run.metrics;
                    else
                        EXPECT_EQ(strategy_metrics, run.metrics)
                            << "ckpt.* metrics diverged between "
                               "engines within one strategy";
                }
            }
        }
    }
}

/** The registry is the semantic oracle plus the default fast path. */
TEST(EngineRegistry, IsReferenceThenPredecoded)
{
    const auto &engines = nvp::allExecEngines();
    ASSERT_EQ(engines.size(), 2u);
    EXPECT_EQ(engines[0], nvp::ExecEngine::reference);
    EXPECT_EQ(engines[1], nvp::ExecEngine::predecoded);
    EXPECT_EQ(nvp::execEngineNames(), "reference,predecoded");
    for (const nvp::ExecEngine engine : engines)
        EXPECT_EQ(nvp::execEngineFromName(nvp::execEngineName(engine)),
                  engine);
    EXPECT_FALSE(nvp::execEngineFromName("batch").has_value());
    EXPECT_EQ(sim::SimConfig{}.core.engine, nvp::ExecEngine::predecoded);
}

} // namespace
