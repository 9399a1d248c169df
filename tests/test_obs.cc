/**
 * Tests for the src/obs observability subsystem: the metrics registry
 * (canonical JSON, deterministic merge), the Chrome-trace event tracer
 * (ring bounds, valid JSON), the cross-metric identity checker on real
 * co-simulator runs, and the two contracts the rest of the tree leans
 * on — observation is non-perturbing, and a sweep's merged metrics are
 * byte-identical at any parallelism.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "kernels/kernel.h"
#include "obs/event_tracer.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/observer.h"
#include "obs/schema.h"
#include "runner/sweep.h"
#include "sim/system_sim.h"
#include "trace/trace_generator.h"

using namespace inc;

namespace
{

// ---------------------------------------------------------------------
// MetricsRegistry

TEST(MetricsRegistry, GetOrCreateAndLookup)
{
    obs::MetricsRegistry m;
    EXPECT_TRUE(m.empty());
    m.counter("a").inc();
    m.counter("a").inc(2);
    m.gauge("g").add(1.5);
    EXPECT_FALSE(m.empty());
    EXPECT_EQ(m.counterValue("a"), 3u);
    EXPECT_DOUBLE_EQ(m.gaugeValue("g"), 1.5);
    EXPECT_TRUE(m.has("a"));
    EXPECT_FALSE(m.has("missing"));
    EXPECT_EQ(m.counterValue("missing"), 0u);
}

TEST(MetricsRegistry, HistogramBucketsPartitionSamples)
{
    obs::MetricsRegistry m;
    obs::Histogram &h = m.histogram("h", {1.0, 10.0, 100.0});
    ASSERT_EQ(h.counts.size(), 4u); // 3 bounds + overflow
    for (const double s : {0.5, 1.0, 5.0, 50.0, 500.0})
        h.record(s);
    EXPECT_EQ(h.counts[0], 2u); // <= 1
    EXPECT_EQ(h.counts[1], 1u); // <= 10
    EXPECT_EQ(h.counts[2], 1u); // <= 100
    EXPECT_EQ(h.counts[3], 1u); // overflow
    EXPECT_EQ(h.total, 5u);
    EXPECT_DOUBLE_EQ(h.sum, 0.5 + 1.0 + 5.0 + 50.0 + 500.0);
}

TEST(MetricsRegistry, MergeAddsAndFlagsBoundMismatch)
{
    obs::MetricsRegistry a;
    a.counter("c").inc(3);
    a.gauge("g").add(1.0);
    a.histogram("h", {1.0, 2.0}).record(0.5);

    obs::MetricsRegistry b;
    b.counter("c").inc(4);
    b.counter("only_b").inc();
    b.gauge("g").add(2.0);
    b.histogram("h", {1.0, 2.0}).record(5.0);

    EXPECT_TRUE(a.merge(b));
    EXPECT_EQ(a.counterValue("c"), 7u);
    EXPECT_EQ(a.counterValue("only_b"), 1u);
    EXPECT_DOUBLE_EQ(a.gaugeValue("g"), 3.0);
    const obs::Histogram &h = a.histograms().at("h");
    EXPECT_EQ(h.counts[0], 1u);
    EXPECT_EQ(h.counts[2], 1u); // overflow bucket from b
    EXPECT_EQ(h.total, 2u);

    obs::MetricsRegistry c;
    c.histogram("h", {9.0}).record(1.0);
    EXPECT_FALSE(a.merge(c)); // bounds mismatch is flagged...
    EXPECT_EQ(a.histograms().at("h").total, 3u); // ...but totals keep up
}

TEST(MetricsRegistry, JsonRoundTripIsByteIdentical)
{
    obs::MetricsRegistry m;
    m.counter("z.last").inc(42);
    m.counter("a.first").inc(7);
    m.gauge("energy_nj").add(1234.5678901234567);
    m.gauge("tiny").add(1e-12);
    m.histogram("h", {1.0, 2.5}).record(2.0);

    const std::string text = m.toJson();
    EXPECT_TRUE(obs::jsonIsValid(text));

    obs::MetricsRegistry back;
    std::string error;
    ASSERT_TRUE(obs::MetricsRegistry::fromJson(text, &back, &error))
        << error;
    EXPECT_EQ(back.toJson(), text);
}

TEST(MetricsRegistry, CompareMetricsJsonFindsDifferences)
{
    obs::MetricsRegistry a;
    a.counter("c").inc(1);
    a.gauge("g").add(100.0);
    obs::MetricsRegistry b;
    b.counter("c").inc(2);
    b.gauge("g").add(100.0 + 1e-12); // within relative tolerance
    b.counter("extra").inc();

    EXPECT_TRUE(obs::compareMetricsJson(a.toJson(), a.toJson()).empty());
    const std::vector<std::string> diffs =
        obs::compareMetricsJson(a.toJson(), b.toJson());
    ASSERT_EQ(diffs.size(), 2u) << diffs.size() << " diffs";
    // Counter mismatch is exact; the extra key is reported; the gauge
    // delta is inside tolerance and must not be.
    EXPECT_NE(diffs[0].find("c"), std::string::npos);
}

// ---------------------------------------------------------------------
// EventTracer

TEST(EventTracer, EmitsValidChromeTraceJson)
{
    obs::EventTracer tracer;
    tracer.span(obs::Track::power, "power_on", 0.0, 500.0);
    tracer.instant(obs::Track::checkpoint, "backup", 250.0);
    tracer.counter("cap_nj", 100.0, 1234.5);
    EXPECT_EQ(tracer.size(), 3u);

    const std::string text = tracer.toChromeTraceJson();
    EXPECT_TRUE(obs::jsonIsValid(text));

    obs::JsonValue doc;
    std::string error;
    ASSERT_TRUE(obs::parseJson(text, &doc, &error)) << error;
    const obs::JsonValue *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->items().size(), 3u);
    EXPECT_EQ(events->items()[0].find("ph")->string(), "X");
    EXPECT_EQ(events->items()[1].find("ph")->string(), "i");
    EXPECT_EQ(events->items()[2].find("ph")->string(), "C");
}

TEST(EventTracer, RingOverwritesOldestAndCountsDrops)
{
    obs::EventTracer tracer(4);
    for (int i = 0; i < 10; ++i)
        tracer.instant(obs::Track::rac, "e",
                       static_cast<double>(i));
    EXPECT_EQ(tracer.size(), 4u);
    EXPECT_EQ(tracer.dropped(), 6u);

    obs::JsonValue doc;
    std::string error;
    ASSERT_TRUE(obs::parseJson(tracer.toChromeTraceJson(), &doc,
                               &error))
        << error;
    const obs::JsonValue *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    // Oldest-first, and only the newest four survive (ts 6..9).
    ASSERT_EQ(events->items().size(), 4u);
    EXPECT_DOUBLE_EQ(events->items().front().find("ts")->number(), 6.0);
    EXPECT_DOUBLE_EQ(events->items().back().find("ts")->number(), 9.0);
    const obs::JsonValue *meta = doc.find("metadata");
    ASSERT_NE(meta, nullptr);
    EXPECT_DOUBLE_EQ(meta->find("droppedEvents")->number(), 6.0);
}

TEST(EventTracer, ProcessNamesComeFirstAndEventsKeepTheirPid)
{
    // The fleet trace's form: a named row per process, then events on
    // each process's real pid at the timestamps they were recorded.
    obs::EventTracer tracer;
    tracer.span(200, 1, "sobel x Power Profile 2", 1000.0, 1500.0);
    tracer.setProcessName(200, "nvpsim work g0 (pid 200)");
    tracer.setProcessName(100, "nvpsim serve (pid 100)");
    tracer.instant(obs::Track::checkpoint, "backup", 250.0);
    EXPECT_EQ(tracer.size(), 2u) << "process names are not ring events";

    const std::string trace = tracer.toChromeTraceJson();
    ASSERT_TRUE(obs::jsonIsValid(trace)) << trace;
    obs::JsonValue doc;
    std::string error;
    ASSERT_TRUE(obs::parseJson(trace, &doc, &error)) << error;
    const obs::JsonValue *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->items().size(), 4u); // 2 process names + 2 events
    const std::vector<obs::JsonValue> &items = events->items();
    for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_EQ(items[i].find("ph")->string(), "M");
        EXPECT_EQ(items[i].find("name")->string(), "process_name");
    }
    EXPECT_DOUBLE_EQ(items[0].find("pid")->number(), 100.0);
    EXPECT_EQ(items[0].find("args")->find("name")->string(),
              "nvpsim serve (pid 100)");
    EXPECT_DOUBLE_EQ(items[1].find("pid")->number(), 200.0);

    const obs::JsonValue &span = items[2];
    EXPECT_EQ(span.find("name")->string(), "sobel x Power Profile 2");
    EXPECT_DOUBLE_EQ(span.find("ts")->number(), 1000.0);
    EXPECT_DOUBLE_EQ(span.find("dur")->number(), 1500.0);
    EXPECT_DOUBLE_EQ(span.find("pid")->number(), 200.0);
    EXPECT_DOUBLE_EQ(span.find("tid")->number(), 1.0);
    // A simulator event stays pid 0 with its Track as tid.
    EXPECT_DOUBLE_EQ(items[3].find("pid")->number(), 0.0);
    EXPECT_DOUBLE_EQ(items[3].find("tid")->number(),
                     static_cast<double>(obs::Track::checkpoint));
}

// ---------------------------------------------------------------------
// Co-simulator instrumentation

sim::SimConfig
smallConfig()
{
    sim::SimConfig cfg;
    cfg.bits.mode = approx::ApproxMode::dynamic;
    cfg.bits.min_bits = 2;
    cfg.seed = 2017;
    return cfg;
}

trace::PowerTrace
smallTrace(int profile = 2, std::uint64_t seed = 2017,
           std::size_t samples = 3000)
{
    trace::TraceGenerator gen(trace::paperProfile(profile), seed);
    return gen.generate(samples);
}

TEST(ObsSim, SeededRunSatisfiesAllMetricIdentities)
{
    const trace::PowerTrace t = smallTrace();
    obs::Observer observer;
    obs::EventTracer tracer;
    observer.tracer = &tracer;
    sim::SimConfig cfg = smallConfig();
    cfg.obs = &observer;

    sim::SystemSimulator sim(kernels::makeKernel("sobel"), &t, cfg);
    sim.run();

    ASSERT_FALSE(observer.registry.empty());
    const std::vector<std::string> problems =
        obs::verifySimMetricIdentities(observer.registry);
    EXPECT_TRUE(problems.empty())
        << problems.size() << " identity violations; first: "
        << problems.front();
    EXPECT_GT(observer.registry.counterValue(obs::kSimSamples), 0u);
    EXPECT_TRUE(obs::jsonIsValid(tracer.toChromeTraceJson()));
}

TEST(ObsSim, ObservationIsNonPerturbing)
{
    const trace::PowerTrace t = smallTrace();
    const kernels::Kernel kernel = kernels::makeKernel("sobel");

    sim::SimConfig plain = smallConfig();
    sim::SystemSimulator without(kernel, &t, plain);
    const sim::SimResult a = without.run();

    obs::Observer observer;
    obs::EventTracer tracer;
    observer.tracer = &tracer;
    sim::SimConfig observed = smallConfig();
    observed.obs = &observer;
    sim::SystemSimulator with(kernel, &t, observed);
    const sim::SimResult b = with.run();

    EXPECT_EQ(a.forward_progress, b.forward_progress);
    EXPECT_EQ(a.main_instructions, b.main_instructions);
    EXPECT_EQ(a.cycles_executed, b.cycles_executed);
    EXPECT_EQ(a.backups, b.backups);
    EXPECT_EQ(a.restores, b.restores);
    EXPECT_EQ(a.frames_captured, b.frames_captured);
    EXPECT_EQ(a.bit_ticks, b.bit_ticks);
    EXPECT_DOUBLE_EQ(a.consumed_energy_nj, b.consumed_energy_nj);
    EXPECT_DOUBLE_EQ(a.mean_psnr, b.mean_psnr);
}

TEST(ObsSim, PublishedCountersMatchResultRecord)
{
    const trace::PowerTrace t = smallTrace();
    obs::Observer observer;
    sim::SimConfig cfg = smallConfig();
    cfg.obs = &observer;
    sim::SystemSimulator sim(kernels::makeKernel("sobel"), &t, cfg);
    const sim::SimResult r = sim.run();

    const obs::MetricsRegistry &m = observer.registry;
    EXPECT_EQ(m.counterValue(obs::kSimForwardProgress),
              r.forward_progress);
    EXPECT_EQ(m.counterValue(obs::kSimBackupsCommitted), r.backups);
    EXPECT_EQ(m.counterValue(obs::kSimRestores), r.restores);
    EXPECT_EQ(m.counterValue(obs::kSimFramesCaptured),
              r.frames_captured);
    EXPECT_DOUBLE_EQ(m.gaugeValue(obs::kEnergyConsumed),
                     r.consumed_energy_nj);
    EXPECT_DOUBLE_EQ(m.gaugeValue(obs::kEnergyBackup),
                     r.backup_energy_nj);
    for (int b = 0; b <= 8; ++b) {
        EXPECT_EQ(m.counterValue(std::string(obs::kBitTicksPrefix) +
                                 std::to_string(b)),
                  r.bit_ticks[static_cast<std::size_t>(b)]);
    }
}

// ---------------------------------------------------------------------
// Identity-checker failure paths: a deliberately corrupted registry
// must produce a violation naming the broken identity, not a silent
// pass (the checkers gate CI and the fuzzer — a checker that cannot
// fail verifies nothing).

obs::MetricsRegistry
consistentSimRegistry()
{
    const trace::PowerTrace t = smallTrace();
    obs::Observer observer;
    sim::SimConfig cfg = smallConfig();
    cfg.obs = &observer;
    sim::SystemSimulator sim(kernels::makeKernel("sobel"), &t, cfg);
    sim.run();
    return std::move(observer.registry);
}

bool
anyProblemMentions(const std::vector<std::string> &problems,
                   const std::string &needle)
{
    for (const std::string &p : problems) {
        if (p.find(needle) != std::string::npos)
            return true;
    }
    return false;
}

TEST(SchemaCheckers, NonSimRegistryIsRejectedByName)
{
    obs::MetricsRegistry empty;
    const std::vector<std::string> problems =
        obs::verifySimMetricIdentities(empty);
    ASSERT_EQ(problems.size(), 1u);
    EXPECT_NE(problems.front().find("sim.samples"), std::string::npos);
}

TEST(SchemaCheckers, CorruptBackupCounterYieldsNamedViolation)
{
    obs::MetricsRegistry m = consistentSimRegistry();
    ASSERT_TRUE(obs::verifySimMetricIdentities(m).empty());

    // One phantom backup attempt breaks attempts == committed + torn.
    m.counter(obs::kSimBackupAttempts).value += 1;
    const std::vector<std::string> problems =
        obs::verifySimMetricIdentities(m);
    ASSERT_FALSE(problems.empty());
    EXPECT_TRUE(anyProblemMentions(problems, "sim.backup.attempts"))
        << "first violation: " << problems.front();
}

TEST(SchemaCheckers, CorruptBitTicksYieldsNamedViolation)
{
    obs::MetricsRegistry m = consistentSimRegistry();
    m.counter(std::string(obs::kBitTicksPrefix) + "4").value += 5;
    const std::vector<std::string> problems =
        obs::verifySimMetricIdentities(m);
    ASSERT_FALSE(problems.empty());
    EXPECT_TRUE(anyProblemMentions(problems, "bits.ticks"))
        << "first violation: " << problems.front();
}

#if INC_OBS_ENABLED
TEST(SchemaCheckers, CorruptEnergySplitYieldsNamedViolation)
{
    obs::MetricsRegistry m = consistentSimRegistry();
    // Inflate one split category well past the checker's relative
    // tolerance so fetch+datapath+idle+assemble no longer re-sums to
    // energy.consumed_nj.
    m.gauge(obs::kEnergyFetch).value +=
        m.gaugeValue(obs::kEnergyConsumed) + 1000.0;
    const std::vector<std::string> problems =
        obs::verifySimMetricIdentities(m);
    ASSERT_FALSE(problems.empty());
    EXPECT_TRUE(anyProblemMentions(problems, "consumed"))
        << "first violation: " << problems.front();
}
#endif

// ---------------------------------------------------------------------
// Sweep aggregation determinism

runner::SweepSpec
smallSweep(int jobs)
{
    runner::SweepSpec spec;
    spec.kernels = {"sobel", "median"};
    spec.traces = {smallTrace(1, 7, 2000), smallTrace(2, 7, 2000)};
    spec.variants = {{"dynamic",
                      [](const std::string &) { return smallConfig(); }}};
    spec.jobs = jobs;
    spec.collect_metrics = true;
    return spec;
}

TEST(ObsSweep, MergedMetricsAreByteIdenticalAtAnyParallelism)
{
    runner::SweepRunner serial(smallSweep(1));
    runner::SweepRunner parallel(smallSweep(4));
    const runner::SweepReport a = serial.run();
    const runner::SweepReport b = parallel.run();
    ASSERT_TRUE(a.allOk());
    ASSERT_TRUE(b.allOk());

    const std::string ja = a.mergedMetrics().toJson();
    const std::string jb = b.mergedMetrics().toJson();
    EXPECT_EQ(ja, jb); // byte-identical, not just tolerance-equal
    EXPECT_EQ(a.mergedMetrics().counterValue(obs::kRunnerJobsTotal),
              a.results.size());
}

TEST(ObsSweep, FailedJobsAreCountedAndExcludedFromMerge)
{
    runner::SweepSpec spec = smallSweep(2);
    spec.max_retries = 0;
    runner::SweepRunner sweep(
        spec, [](const runner::JobSpec &job,
                 const trace::PowerTrace &trace,
                 util::Rng &rng) -> sim::SimResult {
            if (job.index == 1)
                throw std::runtime_error("injected failure");
            return runner::SweepRunner::simJob(job, trace, rng);
        });
    const runner::SweepReport report = sweep.run();
    EXPECT_EQ(report.failureCount(), 1u);
    const obs::MetricsRegistry merged = report.mergedMetrics();
    EXPECT_EQ(merged.counterValue(obs::kRunnerJobsTotal), 4u);
    EXPECT_EQ(merged.counterValue(obs::kRunnerJobsFailed), 1u);
    // Three successful sim jobs still contribute their samples.
    EXPECT_EQ(merged.counterValue(obs::kSimSamples), 3u * 2000u);
}

} // namespace
