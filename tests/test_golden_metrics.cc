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
 * The SuiteDigests rows pin the simulation suite of the committed
 * BENCH_5.json ... BENCH_10.json snapshots (sobel on profiles 1 and 2,
 * median on 1, integral on 3, and sobel p2 under the reference engine
 * and the freezer and ondemand strategies; 60,000 samples, seed 2017,
 * dynamic bits 2..8, linear retention): the run-report digest with a
 * flight recorder attached, the serialized SimResult digest,
 * instructions, completed frames and checkpoint backup traffic, all in
 * tests/golden/suite_digests.json. Only the report digest depends on
 * the hot-path counters, so an INCIDENTAL_OBS=OFF build still checks
 * the rest.
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

#include <cstdint>
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
#include "obs/report/flight_recorder.h"
#include "obs/report/report.h"
#include "obs/schema.h"
#include "sim/result_io.h"
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

/** One row of the digest suite, pinned in suite_digests.json. */
struct SuiteRow
{
    const char *name; ///< test-case suffix and golden key
    const char *kernel;
    int profile;
    nvp::ExecEngine engine;
    sim::StrategyKind strategy;
};

constexpr nvp::ExecEngine kDefaultEngine = nvp::CoreConfig{}.engine;

const SuiteRow kSuiteRows[] = {
    {"sobel_p1", "sobel", 1, kDefaultEngine, sim::StrategyKind::active},
    {"sobel_p2", "sobel", 2, kDefaultEngine, sim::StrategyKind::active},
    {"median_p1", "median", 1, kDefaultEngine, sim::StrategyKind::active},
    {"integral_p3", "integral", 3, kDefaultEngine,
     sim::StrategyKind::active},
    {"sobel_p2_reference", "sobel", 2, nvp::ExecEngine::reference,
     sim::StrategyKind::active},
    {"sobel_p2_freezer", "sobel", 2, kDefaultEngine,
     sim::StrategyKind::freezer},
    {"sobel_p2_ondemand", "sobel", 2, kDefaultEngine,
     sim::StrategyKind::ondemand},
};

const char kSuiteDigestsGolden[] = INC_GOLDEN_DIR "/suite_digests.json";

/** Names the row in test listings, in place of its bytes. */
void
PrintTo(const SuiteRow &row, std::ostream *os)
{
    *os << row.name;
}

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

/** What a pinned run attaches to its observer besides the registry. */
enum class Sink
{
    metrics, ///< the registry alone
    trace,   ///< an event tracer (trace_json)
    report,  ///< a flight recorder (report_digest)
};

/** The pinned scenario every golden file is derived from. */
struct GoldenRun
{
    std::string metrics_json;
    std::string trace_json;
    std::string report_digest;
    std::string result_digest;
    std::uint64_t instructions = 0;
    std::uint64_t frames_completed = 0;
    std::uint64_t ckpt_backup_bytes = 0;
    std::uint64_t ckpt_backup_events = 0;
};

GoldenRun
runPinned(const char *kernel, int profile, std::size_t samples,
          sim::StrategyKind strategy, nvm::RetentionPolicy policy,
          nvp::ExecEngine engine, Sink sink)
{
    trace::TraceGenerator gen(trace::paperProfile(profile), 2017);
    const trace::PowerTrace power = gen.generate(samples);

    sim::SimConfig cfg;
    cfg.bits.mode = approx::ApproxMode::dynamic;
    cfg.bits.min_bits = 2;
    cfg.seed = 2017;
    cfg.strategy = strategy;
    cfg.controller.backup_policy = policy;
    cfg.core.engine = engine;
    obs::Observer observer;
    obs::EventTracer tracer;
    obs::FlightRecorder flight;
    if (sink == Sink::trace)
        observer.tracer = &tracer;
    if (sink == Sink::report)
        observer.flight = &flight;
    cfg.obs = &observer;

    sim::SystemSimulator sim(kernels::makeKernel(kernel), &power, cfg);
    const sim::SimResult result = sim.run();

    GoldenRun out;
    out.metrics_json = observer.registry.toJson();
    if (sink == Sink::trace)
        out.trace_json = tracer.toChromeTraceJson();
    if (sink == Sink::report)
        out.report_digest = obs::reportDigest(
            obs::buildRunReport(observer.registry, &flight).toJson());
    out.result_digest = obs::reportDigest(sim::serializeResult(result));
    out.instructions = result.main_instructions;
    out.frames_completed = result.controller.frames_completed;
    out.ckpt_backup_bytes = sim.strategy().stats().backup_bytes;
    out.ckpt_backup_events = sim.strategy().stats().backups;
    return out;
}

GoldenRun
runPinnedScenario(const Scenario &scenario)
{
    return runPinned(scenario.kernel, scenario.profile, 1000,
                     sim::StrategyKind::active, nvm::RetentionPolicy::full,
                     kDefaultEngine, Sink::trace);
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
                  nvm::RetentionPolicy::linear, kDefaultEngine,
                  Sink::metrics);
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

class SuiteDigests : public ::testing::TestWithParam<SuiteRow>
{
};

/** A row's pinned fields; the report digest is left out when the
 *  hot-path counters are compiled out, since it covers them. */
obs::JsonValue
digestFields(const GoldenRun &run)
{
    obs::JsonValue row = obs::JsonValue::object();
#if INC_OBS_ENABLED
    row.set("report_digest", obs::JsonValue::of(run.report_digest));
#endif
    row.set("result_digest", obs::JsonValue::of(run.result_digest));
    row.set("instructions", obs::JsonValue::of(run.instructions));
    row.set("frames_completed", obs::JsonValue::of(run.frames_completed));
    row.set("ckpt_backup_bytes", obs::JsonValue::of(run.ckpt_backup_bytes));
    row.set("ckpt_backup_events",
            obs::JsonValue::of(run.ckpt_backup_events));
    return row;
}

TEST_P(SuiteDigests, RowMatchesGoldenDigests)
{
    const SuiteRow &row = GetParam();
    const GoldenRun now =
        runPinned(row.kernel, row.profile, 60000, row.strategy,
                  nvm::RetentionPolicy::linear, row.engine, Sink::report);
    const obs::JsonValue got = digestFields(now);

    obs::JsonValue golden = obs::JsonValue::object();
    std::string error;
    const std::string text = readFile(kSuiteDigestsGolden);
    const bool parsed =
        !text.empty() && obs::parseJson(text, &golden, &error);
    if (updateRequested()) {
#if !INC_OBS_ENABLED
        GTEST_SKIP() << "update the digests from the default build: this "
                        "one has no report digest";
#endif
        if (!parsed)
            golden = obs::JsonValue::object();
        golden.set(row.name, got);
        std::ofstream(kSuiteDigestsGolden) << golden.dump() << "\n";
        GTEST_SKIP() << "golden row updated in " << kSuiteDigestsGolden
                     << "; review and commit it";
    }
    ASSERT_TRUE(parsed) << kSuiteDigestsGolden << ": "
                        << (text.empty() ? "missing; run with "
                                           "INC_UPDATE_GOLDEN=1 to "
                                           "create it"
                                         : error);
    const obs::JsonValue *want = golden.find(row.name);
    ASSERT_NE(want, nullptr) << "no row '" << row.name << "' in "
                             << kSuiteDigestsGolden;
    for (const auto &[key, value] : got.members()) {
        const obs::JsonValue *pinned = want->find(key);
        ASSERT_NE(pinned, nullptr) << row.name << ": no pinned " << key;
        EXPECT_EQ(pinned->dump(), value.dump())
            << row.name << ": " << key << " drifted from "
            << kSuiteDigestsGolden
            << "\nIf intentional: INC_UPDATE_GOLDEN=1 "
               "./build/tests/test_golden_metrics";
    }
}

INSTANTIATE_TEST_SUITE_P(
    SuiteRows, SuiteDigests, ::testing::ValuesIn(kSuiteRows),
    [](const ::testing::TestParamInfo<SuiteRow> &info) {
        return std::string(info.param.name);
    });

} // namespace
