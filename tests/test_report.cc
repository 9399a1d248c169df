/**
 * @file
 * Tests for the run-report layer (src/obs/report): histogram
 * percentile interpolation, the flight recorder's bounded log and its
 * consistency with the registry counters, RunReport construction and
 * its determinism guarantees (byte-identical at any sweep parallelism,
 * offline rebuild from a metrics file equals the online build), and
 * the digest the SuiteDigests golden rows pin.
 */

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "kernels/kernel.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/observer.h"
#include "obs/report/flight_recorder.h"
#include "obs/report/report.h"
#include "obs/schema.h"
#include "runner/sweep.h"
#include "sim/system_sim.h"
#include "trace/trace_generator.h"

namespace
{

using namespace inc;

// ---------------------------------------------------------------------
// Histogram percentiles (exported as p50/p95/p99 in the metrics JSON)

TEST(HistogramPercentile, PinsLinearInterpolation)
{
    obs::Histogram h({10.0, 20.0, 50.0});
    // 4 samples in (0,10], 4 in (10,20], 2 in (20,50].
    for (int i = 0; i < 4; ++i)
        h.record(5.0);
    for (int i = 0; i < 4; ++i)
        h.record(15.0);
    for (int i = 0; i < 2; ++i)
        h.record(30.0);

    // rank = q * 10 samples; the first bucket interpolates up from 0.
    EXPECT_DOUBLE_EQ(h.percentile(0.2), 5.0);   // 2 of 4 into [0,10]
    EXPECT_DOUBLE_EQ(h.percentile(0.4), 10.0);  // first bucket's edge
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 12.5);  // 1 of 4 into (10,20]
    EXPECT_DOUBLE_EQ(h.percentile(0.8), 20.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.9), 35.0);  // 1 of 2 into (20,50]
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 50.0);
}

TEST(HistogramPercentile, EdgeCases)
{
    obs::Histogram empty({10.0});
    EXPECT_DOUBLE_EQ(empty.percentile(0.5), 0.0);

    // Every sample overflows: the estimate clamps to the top bound
    // (the overflow bucket has no upper edge).
    obs::Histogram over({10.0});
    over.record(100.0);
    over.record(200.0);
    EXPECT_DOUBLE_EQ(over.percentile(0.99), 10.0);

    // Out-of-range q is clamped, not an error.
    obs::Histogram h({10.0});
    h.record(5.0);
    EXPECT_DOUBLE_EQ(h.percentile(-1.0), h.percentile(0.0));
    EXPECT_DOUBLE_EQ(h.percentile(2.0), h.percentile(1.0));
}

TEST(HistogramPercentile, SingleSampleAndAllEqualSamples)
{
    // One sample: the rank interpolates across its bucket, pinned at
    // the bucket edges.
    obs::Histogram one({10.0, 20.0});
    one.record(5.0);
    EXPECT_DOUBLE_EQ(one.percentile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(one.percentile(0.5), 5.0);
    EXPECT_DOUBLE_EQ(one.percentile(1.0), 10.0);

    // All samples equal, landing in an interior bucket: the median is
    // the bucket midpoint (the sample's own value here) and the
    // extreme ranks are the bucket edges.
    obs::Histogram same({10.0, 20.0});
    for (int i = 0; i < 5; ++i)
        same.record(15.0);
    EXPECT_DOUBLE_EQ(same.percentile(0.2), 12.0); // rank 1 of 5
    EXPECT_DOUBLE_EQ(same.percentile(0.5), 15.0);
    EXPECT_DOUBLE_EQ(same.percentile(1.0), 20.0);

    // A boundless histogram has a single overflow bucket and no edge
    // to interpolate toward: empty answers 0, otherwise the mean —
    // exact when every sample is equal.
    obs::Histogram boundless(std::vector<double>{});
    EXPECT_DOUBLE_EQ(boundless.percentile(0.5), 0.0);
    boundless.record(42.0);
    boundless.record(42.0);
    EXPECT_DOUBLE_EQ(boundless.percentile(0.5), 42.0);
    EXPECT_DOUBLE_EQ(boundless.percentile(0.99), 42.0);
}

TEST(HistogramPercentile, JsonExportsSummariesWithoutBreakingRoundTrip)
{
    obs::MetricsRegistry m;
    obs::Histogram &h = m.histogram("hist.test", {10.0, 20.0});
    h.record(5.0);
    h.record(15.0);

    const std::string json = m.toJson();
    EXPECT_NE(json.find("\"p50\""), std::string::npos);
    EXPECT_NE(json.find("\"p95\""), std::string::npos);
    EXPECT_NE(json.find("\"p99\""), std::string::npos);

    // The derived fields are recomputed on every dump, never stored:
    // parse -> dump must stay byte-identical.
    obs::MetricsRegistry back;
    std::string error;
    ASSERT_TRUE(obs::MetricsRegistry::fromJson(json, &back, &error))
        << error;
    EXPECT_EQ(back.toJson(), json);
}

// ---------------------------------------------------------------------
// Flight recorder bookkeeping

TEST(FlightRecorder, BoundedAppendKeepsFirstRecordsAndCountsDrops)
{
    obs::FlightRecorder fr(2, 1);
    ASSERT_NE(fr.appendOutage(), nullptr);
    ASSERT_NE(fr.appendOutage(), nullptr);
    EXPECT_EQ(fr.appendOutage(), nullptr);
    EXPECT_EQ(fr.outages().size(), 2u);
    EXPECT_EQ(fr.droppedOutages(), 1u);

    ASSERT_NE(fr.appendFrame(), nullptr);
    EXPECT_EQ(fr.appendFrame(), nullptr);
    EXPECT_EQ(fr.droppedFrames(), 1u);
}

TEST(FlightRecorder, OpenOutageIsTheUnresumedTail)
{
    obs::FlightRecorder fr;
    EXPECT_EQ(fr.openOutage(), nullptr);

    obs::OutageRecord *rec = fr.appendOutage();
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(fr.openOutage(), rec);

    rec->resumed = true;
    rec->resume = obs::ResumeKind::plain_resume;
    EXPECT_EQ(fr.openOutage(), nullptr);
}

// ---------------------------------------------------------------------
// RunReport from a real co-simulation

sim::SimConfig
reportConfig()
{
    sim::SimConfig cfg;
    cfg.bits.mode = approx::ApproxMode::dynamic;
    cfg.bits.min_bits = 2;
    cfg.seed = 2017;
    return cfg;
}

trace::PowerTrace
reportTrace(int profile = 2, std::size_t samples = 5000)
{
    trace::TraceGenerator gen(trace::paperProfile(profile), 2017);
    return gen.generate(samples);
}

struct ObservedRun
{
    obs::Observer observer;
    obs::FlightRecorder flight;
    sim::SimResult result;
};

void
runObserved(ObservedRun *run)
{
    const trace::PowerTrace t = reportTrace();
    run->observer.flight = &run->flight;
    sim::SimConfig cfg = reportConfig();
    cfg.obs = &run->observer;
    sim::SystemSimulator sim(kernels::makeKernel("sobel"), &t, cfg);
    run->result = sim.run();
}

TEST(RunReport, AttributionSumsToConsumedAndJsonIsValid)
{
    ObservedRun run;
    runObserved(&run);
    const obs::RunReport report =
        obs::buildRunReport(run.observer.registry, &run.flight);

    EXPECT_TRUE(report.identity_violations.empty());
    EXPECT_DOUBLE_EQ(report.consumed_nj, run.result.consumed_energy_nj);
    double attributed = 0.0;
    for (const obs::AttributionRow &row : report.attribution)
        attributed += row.nj;
    EXPECT_NEAR(attributed, report.attribution_sum_nj, 1e-12);
#if INC_OBS_ENABLED
    // The split accumulators were compiled in, so the rows re-sum to
    // energy.consumed_nj within 1e-9 relative (the schema identity).
    EXPECT_TRUE(report.split_exact);
    EXPECT_LE(std::fabs(attributed - report.consumed_nj),
              1e-9 * std::max(1.0, std::fabs(report.consumed_nj)));
#else
    // Compiled out: zero gauges against a nonzero consumed total.
    EXPECT_FALSE(report.split_exact);
#endif

    const std::string json = report.toJson();
    EXPECT_TRUE(obs::jsonIsValid(json));
    EXPECT_NE(json.find("inc-run-report-v1"), std::string::npos);
    EXPECT_FALSE(report.renderText().empty());
}

TEST(RunReport, FlightLogClosesAgainstRegistryCounters)
{
    ObservedRun run;
    runObserved(&run);
    const obs::MetricsRegistry &m = run.observer.registry;

    std::uint64_t cold = 0, resumed = 0;
    for (const obs::OutageRecord &rec : run.flight.outages()) {
        if (rec.resume == obs::ResumeKind::cold_boot)
            ++cold;
        else if (rec.resumed)
            ++resumed;
    }
    // Nothing dropped at this trace length, so the log must close
    // exactly against the registry: every cold boot and every restore
    // appears as a record, every committed backup opened one. The
    // sim's restore counter includes the cold boot(s) — a cold boot is
    // the run's first power-up — so the two record kinds together
    // account for it.
    ASSERT_EQ(run.flight.droppedOutages(), 0u);
    EXPECT_EQ(cold, m.counterValue(obs::kSimColdBoots));
    EXPECT_EQ(resumed + cold, m.counterValue(obs::kSimRestores));
    EXPECT_EQ(run.flight.outages().size(),
              m.counterValue(obs::kSimBackupsCommitted) + cold);

    const obs::RunReport report = obs::buildRunReport(m, &run.flight);
    EXPECT_TRUE(report.has_flight);
    EXPECT_EQ(report.outage_log.size(), run.flight.outages().size());
    EXPECT_EQ(report.cold_boots, cold);
}

TEST(RunReport, PublishedDropCountersSurviveWithoutTheFlightLog)
{
    // Overflow a tiny recorder: capacity 1 each, then 3 outages and 2
    // frames.
    obs::FlightRecorder flight(1, 1);
    for (int i = 0; i < 3; ++i)
        flight.appendOutage();
    for (int i = 0; i < 2; ++i)
        flight.appendFrame();
    EXPECT_EQ(flight.droppedOutages(), 2u);
    EXPECT_EQ(flight.droppedFrames(), 1u);

    obs::MetricsRegistry m;
    obs::publishFlightDrops(flight, m);
    EXPECT_EQ(m.counterValue(obs::kFlightDroppedOutages), 2u);
    EXPECT_EQ(m.counterValue(obs::kFlightDroppedFrames), 1u);

    // An offline report (registry only, no recorder attached) must
    // still surface the overflow, in the struct, the JSON, and the
    // rendered text.
    const obs::RunReport r = obs::buildRunReport(m);
    EXPECT_FALSE(r.has_flight);
    EXPECT_EQ(r.outage_log_dropped, 2u);
    EXPECT_EQ(r.frame_log_dropped, 1u);
    EXPECT_NE(r.toJson().find("outages_dropped"), std::string::npos);
    EXPECT_NE(r.renderText().find("flight recorder overflow"),
              std::string::npos);

    // Zero drops published: counters present, no overflow note.
    obs::MetricsRegistry clean;
    obs::publishFlightDrops(obs::FlightRecorder(4, 4), clean);
    EXPECT_TRUE(clean.has(obs::kFlightDroppedOutages));
    const obs::RunReport rc = obs::buildRunReport(clean);
    EXPECT_EQ(rc.outage_log_dropped, 0u);
    EXPECT_EQ(rc.renderText().find("flight recorder overflow"),
              std::string::npos);
}

TEST(RunReport, OfflineRebuildFromMetricsJsonMatchesOnline)
{
    ObservedRun run;
    runObserved(&run);

    // What `nvpsim report --from-metrics` does: serialize, re-parse,
    // rebuild. Flight detail lives outside the registry, so compare
    // against an online build without it.
    obs::MetricsRegistry back;
    std::string error;
    ASSERT_TRUE(obs::MetricsRegistry::fromJson(
        run.observer.registry.toJson(), &back, &error))
        << error;

    const obs::RunReport online =
        obs::buildRunReport(run.observer.registry);
    const obs::RunReport offline = obs::buildRunReport(back);
    EXPECT_EQ(offline.toJson(), online.toJson());
    EXPECT_EQ(offline.renderText(), online.renderText());
}

TEST(RunReport, SweepReportIsByteIdenticalAtAnyParallelism)
{
    auto sweep = [](int jobs) {
        runner::SweepSpec spec;
        spec.kernels = {"sobel", "median"};
        spec.traces = {reportTrace(1, 2000), reportTrace(2, 2000)};
        spec.variants = {{"dynamic", [](const std::string &) {
                              return reportConfig();
                          }}};
        spec.jobs = jobs;
        spec.collect_metrics = true;
        runner::SweepRunner runner(spec);
        return runner.run();
    };
    const runner::SweepReport a = sweep(1);
    const runner::SweepReport b = sweep(4);
    ASSERT_TRUE(a.allOk());
    ASSERT_TRUE(b.allOk());

    const obs::RunReport ra = obs::buildRunReport(
        a.mergedMetrics(), nullptr, a.kernelEfficiency());
    const obs::RunReport rb = obs::buildRunReport(
        b.mergedMetrics(), nullptr, b.kernelEfficiency());
    EXPECT_EQ(ra.toJson(), rb.toJson());
    EXPECT_EQ(ra.renderText(), rb.renderText());

    // Kernel rows follow expansion order and fold all traces/variants.
    ASSERT_EQ(ra.kernels.size(), 2u);
    EXPECT_EQ(ra.kernels[0].kernel, "sobel");
    EXPECT_EQ(ra.kernels[1].kernel, "median");
    EXPECT_GT(ra.kernels[0].progress_per_uj, 0.0);
}

TEST(RunReport, DigestIsStableAndContentSensitive)
{
    // FNV-1a 64-bit offset basis: the digest of the empty string.
    EXPECT_EQ(obs::reportDigest(""), "fnv1a:cbf29ce484222325");
    EXPECT_EQ(obs::reportDigest("a"), obs::reportDigest("a"));
    EXPECT_NE(obs::reportDigest("a"), obs::reportDigest("b"));
}

} // namespace
