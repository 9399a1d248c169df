/**
 * Power traces: generator calibration against the paper's published
 * statistics, outage extraction, CSV round-trip and strict CSV loading.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "trace/outage_stats.h"
#include "trace/trace_generator.h"

using namespace inc::trace;

TEST(PowerTrace, BasicsAndClamping)
{
    PowerTrace t({10.0, -5.0, 20.0}, "x");
    EXPECT_EQ(t.size(), 3u);
    EXPECT_EQ(t.at(1), 0.0); // negative samples clamp to zero
    EXPECT_EQ(t.at(99), 20.0); // reads past the end clamp to last
    EXPECT_NEAR(t.durationSec(), 3e-4, 1e-12);
    EXPECT_NEAR(t.meanPower(), 10.0, 1e-12);
    EXPECT_EQ(t.peakPower(), 20.0);
    EXPECT_NEAR(t.totalEnergyUj(), 30.0 * 1e-4, 1e-12);
}

TEST(PowerTrace, CsvRoundTrip)
{
    TraceGenerator gen(paperProfile(1), 11);
    const PowerTrace t = gen.generate(500);
    const std::string path = ::testing::TempDir() + "/trace.csv";
    ASSERT_TRUE(t.saveCsv(path));
    const PowerTrace back = PowerTrace::loadCsv(path, "back");
    ASSERT_EQ(back.size(), t.size());
    for (size_t i = 0; i < t.size(); i += 37)
        EXPECT_NEAR(back.at(i), t.at(i), 1e-3);
}

namespace
{

/** Load a CSV written from @p content; @p error receives the reason.
 *  The file sits in a directory of its own per test, because ctest runs
 *  the tests that call this in parallel processes. */
PowerTrace
loadText(const std::string &content, std::string *error)
{
    const std::string dir =
        ::testing::TempDir() + "/" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/strict.csv";
    std::ofstream(path, std::ios::binary) << content;
    error->clear();
    return PowerTrace::loadCsv(path, "strict", error);
}

} // namespace

TEST(PowerTrace, CsvLoadAcceptsAnOptionalHeaderAndWholeNumbers)
{
    std::string error;
    const PowerTrace headed = loadText("power_uw\n1.5\n2\r\n-3\n", &error);
    ASSERT_EQ(headed.size(), 3u) << error;
    EXPECT_DOUBLE_EQ(headed.at(0), 1.5);
    EXPECT_DOUBLE_EQ(headed.at(1), 2.0);
    EXPECT_EQ(loadText("4\n5\n", &error).size(), 2u) << error;
}

TEST(PowerTrace, CsvLoadRejectsAnyRowThatIsNotOneNumber)
{
    // Each of these once loaded: nan as 0, 5abc as 5, and the other
    // rows were dropped with a warning, shifting every later sample.
    const std::vector<std::pair<std::string, std::string>> bad = {
        {"power_uw\n1\nnan\n", "row 3: want one number, got 'nan'"},
        {"power_uw\n5abc\n", "row 2: want one number, got '5abc'"},
        {"1\nwatts\n2\n", "row 2: want one number, got 'watts'"},
        {"power_uw\n1\ninf\n", "row 3"},
        {"power_uw\n1,2\n", "row 2: want one number, got '1,2'"},
        {"power_uw\n 7\n", "row 2"},
    };
    for (const auto &[content, needle] : bad) {
        std::string error;
        EXPECT_TRUE(loadText(content, &error).empty()) << content;
        EXPECT_NE(error.find("strict.csv " + needle), std::string::npos)
            << content << ": " << error;
    }
    std::string error;
    EXPECT_TRUE(PowerTrace::loadCsv("/no/such/trace.csv", "", &error)
                    .empty());
    EXPECT_NE(error.find("/no/such/trace.csv"), std::string::npos);
}

TEST(PowerTrace, ScaledMultipliesEverySample)
{
    PowerTrace t({10.0, 20.0, 30.0}, "x");
    const PowerTrace s = t.scaled(2.5);
    EXPECT_DOUBLE_EQ(s.at(0), 25.0);
    EXPECT_DOUBLE_EQ(s.at(2), 75.0);
    EXPECT_EQ(s.name(), "x");
    EXPECT_DOUBLE_EQ(t.scaled(0.0).meanPower(), 0.0);
}

TEST(PowerTrace, ResamplingPreservesDurationAndEnergy)
{
    // A 1 ms-period capture resampled onto the 0.1 ms grid: 10x the
    // samples, same duration, energy preserved to interpolation error.
    TraceGenerator gen(paperProfile(1), 31);
    const PowerTrace coarse = gen.generate(500); // pretend 1 ms period
    const PowerTrace fine = coarse.resampled(1e-3);
    EXPECT_EQ(fine.size(), 5000u);
    EXPECT_NEAR(fine.durationSec(), 0.5, 1e-6);
    EXPECT_NEAR(fine.meanPower(), coarse.meanPower(),
                0.05 * coarse.meanPower() + 0.5);

    // Identity resampling is lossless in length.
    EXPECT_EQ(coarse.resampled(1e-4).size(), coarse.size());
}

TEST(TraceGenerator, Deterministic)
{
    TraceGenerator a(paperProfile(2), 42);
    TraceGenerator b(paperProfile(2), 42);
    EXPECT_EQ(a.generate(1000).samples(), b.generate(1000).samples());
}

class ProfileCalibration : public ::testing::TestWithParam<int>
{
};

TEST_P(ProfileCalibration, MatchesPaperStatistics)
{
    // 10 s of trace, as in the paper's Fig. 2.
    TraceGenerator gen(paperProfile(GetParam()), 1234 + GetParam());
    const PowerTrace t = gen.generate(100000);

    // Sec. 2.2: average power 10-40 uW in daily activities.
    EXPECT_GE(t.meanPower(), 8.0);
    EXPECT_LE(t.meanPower(), 45.0);

    // Fig. 2: spikes approach (but never exceed) ~2000 uW.
    EXPECT_GT(t.peakPower(), 800.0);
    EXPECT_LE(t.peakPower(), 2000.0);

    // Sec. 2.2: 1000-2000 power emergencies per 10 s window at 33 uW.
    const OutageStats stats = analyzeOutages(t);
    EXPECT_GE(stats.emergenciesPer10s(), 700.0);
    EXPECT_LE(stats.emergenciesPer10s(), 2300.0);

    // Fig. 3: outages from sub-ms to hundreds of ms, decaying quickly.
    EXPECT_GT(stats.maxDurationTenthMs(), 500.0);
    EXPECT_LT(stats.meanDurationTenthMs(), 200.0);
    EXPECT_GT(stats.survivalFraction(500.0), 0.80);
}

INSTANTIATE_TEST_SUITE_P(AllProfiles, ProfileCalibration,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST_P(ProfileCalibration, RealizedActivityTracksTarget)
{
    const HarvesterProfile profile = paperProfile(GetParam());
    TraceGenerator gen(profile, 4242u + static_cast<unsigned>(
                                            GetParam()));
    // 30 s: enough burst/rest renewals to average out the exponential
    // segment-length variance.
    const PowerTrace t = gen.generate(300000);
    // Active periods sit on the active floor (>= ~8 uW) even between
    // pulses; idle rests sit near 2 uW. A 6 uW threshold separates them.
    std::size_t active = 0;
    for (double s : t.samples()) {
        if (s > 6.0)
            ++active;
    }
    const double realized =
        static_cast<double>(active) / static_cast<double>(t.size());
    EXPECT_NEAR(realized, profile.activity, 0.15);
}

TEST(TraceGenerator, HighActivityProfilesHaveMorePower)
{
    // Profiles 1 and 4 are the high-power days (Sec. 8.6 guidance).
    auto mean = [](int idx) {
        TraceGenerator gen(paperProfile(idx), 99);
        return gen.generate(50000).meanPower();
    };
    const double p1 = mean(1), p2 = mean(2), p3 = mean(3), p4 = mean(4),
                 p5 = mean(5);
    EXPECT_GT(p1, p2);
    EXPECT_GT(p1, p3);
    EXPECT_GT(p1, p5);
    EXPECT_GT(p4, p2);
    EXPECT_GT(p4, p5);
}

TEST(OutageStats, ExtractionIsExact)
{
    // 33 uW threshold; samples alternate around it.
    PowerTrace t({100, 10, 10, 100, 100, 5, 100, 2, 2, 2}, "t");
    const OutageStats s = analyzeOutages(t);
    ASSERT_EQ(s.count(), 3u);
    EXPECT_EQ(s.outages[0].start_sample, 1u);
    EXPECT_EQ(s.outages[0].length_samples, 2u);
    EXPECT_EQ(s.outages[1].length_samples, 1u);
    EXPECT_EQ(s.outages[2].length_samples, 3u); // runs to trace end
    EXPECT_DOUBLE_EQ(s.maxDurationTenthMs(), 3.0);
    EXPECT_NEAR(s.aboveThresholdFraction(), 0.4, 1e-12);
    EXPECT_NEAR(s.meanDurationTenthMs(), 2.0, 1e-12);
    EXPECT_NEAR(s.survivalFraction(2.0), 2.0 / 3.0, 1e-12);
}

TEST(OutageStats, HistogramCoversAllOutages)
{
    TraceGenerator gen(paperProfile(3), 7);
    const PowerTrace t = gen.generate(20000);
    const OutageStats s = analyzeOutages(t);
    const auto h = s.durationHistogram(20);
    EXPECT_EQ(h.total(), s.count());
}

TEST(Schedule, ComposesSegmentsInOrder)
{
    const std::vector<ScheduleSegment> schedule = {
        {1, 0.5, "walk"}, {5, 1.0, "desk"}, {4, 0.5, "errand"}};
    const PowerTrace day = composeSchedule(schedule, 3, "test day");
    EXPECT_EQ(day.size(), 20000u);
    EXPECT_EQ(day.name(), "test day");

    // The high-activity first segment must out-power the desk segment.
    auto meanOf = [&day](std::size_t from, std::size_t to) {
        double sum = 0;
        for (std::size_t i = from; i < to; ++i)
            sum += day.at(i);
        return sum / static_cast<double>(to - from);
    };
    EXPECT_GT(meanOf(0, 5000), meanOf(5000, 15000));
}

TEST(Schedule, TypicalDayScalesToRequestedLength)
{
    const auto day = typicalDay(120.0);
    double total = 0;
    for (const auto &segment : day)
        total += segment.seconds;
    EXPECT_NEAR(total, 120.0, 1e-9);
    for (const auto &segment : day) {
        EXPECT_GE(segment.profile, 1);
        EXPECT_LE(segment.profile, 5);
        EXPECT_FALSE(segment.activity.empty());
    }
    // Deterministic composition.
    const auto a = composeSchedule(day, 7).samples();
    const auto b = composeSchedule(day, 7).samples();
    EXPECT_EQ(a, b);
}

TEST(StandardProfiles, ReturnsFiveNamedTraces)
{
    const auto traces = standardProfiles(2000);
    ASSERT_EQ(traces.size(), 5u);
    for (size_t i = 0; i < 5; ++i) {
        EXPECT_EQ(traces[i].size(), 2000u);
        EXPECT_NE(traces[i].name().find("Profile"), std::string::npos);
    }
}
