/**
 * Golden-file regression test for the observability sinks: pinned
 * co-simulator scenarios (sobel on power profile 2 and median on
 * profile 1, both seed 2017, 1000 samples, dynamic bits) must keep
 * producing the same metrics registry and the same Chrome-trace
 * timeline as the checked-in golden files in tests/golden/. Those
 * short runs never power-cycle (0 backups, 0 retention flips), so two
 * outage-heavy runs (sobel on profile 2, 20,000 samples, linear
 * retention, the active and freezer strategies) pin the metrics
 * registry alone: backups through both image disciplines, restores and
 * the retention decay of the AC regions.
 *
 * Comparison is normalizing, not textual: both sides are parsed and
 * re-serialized through the canonical obs/json.h dump before
 * comparison, so the test is insensitive to incidental formatting
 * changes but catches any semantic drift (an extra backup, a shifted
 * span, a renamed counter). Metrics are additionally compared through
 * compareMetricsJson, which gives per-metric diff lines and a 1e-9
 * relative tolerance for the energy gauges.
 *
 * Updating the goldens after an intentional behavior change:
 *
 *     INC_UPDATE_GOLDEN=1 ./build/tests/test_golden_metrics
 *
 * rewrites the golden JSON files under tests/golden/ in the source
 * tree (the build embeds the source path via the INC_GOLDEN_DIR
 * compile definition); commit the new files together with the change
 * that moved them.
 */

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "kernels/kernel.h"
#include "obs/event_tracer.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/observer.h"
#include "obs/schema.h"
#include "sim/system_sim.h"
#include "trace/trace_generator.h"

#ifndef INC_GOLDEN_DIR
#error "INC_GOLDEN_DIR must point at tests/golden (see CMakeLists.txt)"
#endif

using namespace inc;

namespace
{

/** One pinned co-simulator scenario with its golden-file pair. */
struct Scenario
{
    const char *name;    ///< test-case suffix
    const char *kernel;
    int profile;
    const char *metrics_golden;
    const char *trace_golden;
};

const Scenario kScenarios[] = {
    {"sobel_p2", "sobel", 2, INC_GOLDEN_DIR "/sobel_p2_metrics.json",
     INC_GOLDEN_DIR "/sobel_p2_trace.json"},
    {"median_p1", "median", 1, INC_GOLDEN_DIR "/median_p1_metrics.json",
     INC_GOLDEN_DIR "/median_p1_trace.json"},
};

/** One outage-heavy scenario, pinned by its metrics alone. */
struct OutageScenario
{
    const char *name; ///< test-case suffix
    sim::StrategyKind strategy;
    const char *metrics_golden;
};

const OutageScenario kOutageScenarios[] = {
    {"sobel_p2_active", sim::StrategyKind::active,
     INC_GOLDEN_DIR "/sobel_p2_outage_active_metrics.json"},
    {"sobel_p2_freezer", sim::StrategyKind::freezer,
     INC_GOLDEN_DIR "/sobel_p2_outage_freezer_metrics.json"},
};

bool
updateRequested()
{
    const char *env = std::getenv("INC_UPDATE_GOLDEN");
    return env != nullptr && env[0] != '\0' && env[0] != '0';
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return "";
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Parse + canonical re-dump; empty string on malformed input. */
std::string
normalizeJson(const std::string &text)
{
    obs::JsonValue doc;
    std::string error;
    if (!obs::parseJson(text, &doc, &error))
        return "";
    return doc.dump();
}

/** The pinned scenario every golden file is derived from. */
struct GoldenRun
{
    std::string metrics_json;
    std::string trace_json;
};

GoldenRun
runPinned(const char *kernel, int profile, std::size_t samples,
          sim::StrategyKind strategy, nvm::RetentionPolicy policy,
          bool with_trace)
{
    trace::TraceGenerator gen(trace::paperProfile(profile), 2017);
    const trace::PowerTrace power = gen.generate(samples);

    sim::SimConfig cfg;
    cfg.bits.mode = approx::ApproxMode::dynamic;
    cfg.bits.min_bits = 2;
    cfg.seed = 2017;
    cfg.strategy = strategy;
    cfg.controller.backup_policy = policy;
    obs::Observer observer;
    obs::EventTracer tracer;
    if (with_trace)
        observer.tracer = &tracer;
    cfg.obs = &observer;

    sim::SystemSimulator sim(kernels::makeKernel(kernel), &power, cfg);
    sim.run();

    GoldenRun out;
    out.metrics_json = observer.registry.toJson();
    if (with_trace)
        out.trace_json = tracer.toChromeTraceJson();
    return out;
}

GoldenRun
runPinnedScenario(const Scenario &scenario)
{
    return runPinned(scenario.kernel, scenario.profile, 1000,
                     sim::StrategyKind::active, nvm::RetentionPolicy::full,
                     true);
}

/** Valid JSON whose registry satisfies the cross-metric identities,
 *  whatever the golden state. */
void
expectSelfConsistentMetrics(const std::string &metrics_json)
{
    ASSERT_TRUE(obs::jsonIsValid(metrics_json));
    obs::MetricsRegistry registry;
    std::string error;
    ASSERT_TRUE(obs::MetricsRegistry::fromJson(metrics_json, &registry,
                                               &error))
        << error;
    const std::vector<std::string> problems =
        obs::verifySimMetricIdentities(registry);
    ASSERT_TRUE(problems.empty())
        << problems.size()
        << " identity violations; first: " << problems.front();
}

/** Tolerance-aware metrics comparison with per-metric diff lines. */
void
expectMetricsMatchGolden(const char *golden_path,
                         const std::string &metrics_json)
{
    const std::string golden_metrics = readFile(golden_path);
    ASSERT_FALSE(golden_metrics.empty())
        << golden_path
        << " missing; run with INC_UPDATE_GOLDEN=1 to create it";
    const std::vector<std::string> diffs =
        obs::compareMetricsJson(golden_metrics, metrics_json);
    if (!diffs.empty()) {
        std::ostringstream msg;
        msg << diffs.size() << " metric(s) drifted from golden:";
        for (const auto &d : diffs)
            msg << "\n  " << d;
        msg << "\nIf intentional: INC_UPDATE_GOLDEN=1 "
               "./build/tests/test_golden_metrics";
        FAIL() << msg.str();
    }
}

class GoldenMetrics : public ::testing::TestWithParam<Scenario>
{
};

TEST_P(GoldenMetrics, PinnedScenarioMatchesGoldenFiles)
{
#if !INC_OBS_ENABLED
    GTEST_SKIP() << "hot-path counters compiled out "
                    "(INCIDENTAL_OBS=OFF); the golden files assume "
                    "the default build";
#endif
    const Scenario &scenario = GetParam();
    const GoldenRun now = runPinnedScenario(scenario);

    // The produced artifacts must be self-consistent regardless of the
    // golden state: valid JSON and clean identities.
    ASSERT_NO_FATAL_FAILURE(expectSelfConsistentMetrics(now.metrics_json));
    ASSERT_TRUE(obs::jsonIsValid(now.trace_json));

    if (updateRequested()) {
        std::ofstream(scenario.metrics_golden) << now.metrics_json;
        std::ofstream(scenario.trace_golden) << now.trace_json;
        GTEST_SKIP() << "golden files updated in " << INC_GOLDEN_DIR
                     << "; review and commit them";
    }

    const std::string golden_trace = readFile(scenario.trace_golden);
    ASSERT_FALSE(golden_trace.empty())
        << scenario.trace_golden
        << " missing; run with INC_UPDATE_GOLDEN=1 to create it";
    ASSERT_NO_FATAL_FAILURE(
        expectMetricsMatchGolden(scenario.metrics_golden, now.metrics_json));

    // Trace: normalized structural comparison.
    const std::string want = normalizeJson(golden_trace);
    const std::string got = normalizeJson(now.trace_json);
    ASSERT_FALSE(want.empty()) << "golden trace is malformed JSON";
    ASSERT_FALSE(got.empty());
    if (want != got) {
        const std::size_t n = std::min(want.size(), got.size());
        std::size_t at = 0;
        while (at < n && want[at] == got[at])
            ++at;
        const std::size_t from = at < 60 ? 0 : at - 60;
        FAIL() << "chrome trace drifted from golden at byte " << at
               << "\n  golden: ..."
               << want.substr(from, 120) << "\n  actual: ..."
               << got.substr(from, 120)
               << "\nIf intentional: INC_UPDATE_GOLDEN=1 "
                  "./build/tests/test_golden_metrics";
    }
}

INSTANTIATE_TEST_SUITE_P(
    PinnedScenarios, GoldenMetrics, ::testing::ValuesIn(kScenarios),
    [](const ::testing::TestParamInfo<Scenario> &info) {
        return std::string(info.param.name);
    });

class OutageGoldenMetrics
    : public ::testing::TestWithParam<OutageScenario>
{
};

TEST_P(OutageGoldenMetrics, PinnedOutageRunMatchesGoldenMetrics)
{
#if !INC_OBS_ENABLED
    GTEST_SKIP() << "hot-path counters compiled out "
                    "(INCIDENTAL_OBS=OFF); the golden files assume "
                    "the default build";
#endif
    const OutageScenario &scenario = GetParam();
    const GoldenRun now =
        runPinned("sobel", 2, 20000, scenario.strategy,
                  nvm::RetentionPolicy::linear, false);
    ASSERT_NO_FATAL_FAILURE(expectSelfConsistentMetrics(now.metrics_json));

    if (updateRequested()) {
        std::ofstream(scenario.metrics_golden) << now.metrics_json;
        GTEST_SKIP() << "golden file updated in " << INC_GOLDEN_DIR
                     << "; review and commit it";
    }
    expectMetricsMatchGolden(scenario.metrics_golden, now.metrics_json);
}

INSTANTIATE_TEST_SUITE_P(
    OutageScenarios, OutageGoldenMetrics,
    ::testing::ValuesIn(kOutageScenarios),
    [](const ::testing::TestParamInfo<OutageScenario> &info) {
        return std::string(info.param.name);
    });

} // namespace
