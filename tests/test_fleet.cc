/**
 * @file
 * The fleet campaign service test tier (src/fleet, DESIGN.md §15).
 *
 * In-process units: shard-planner partition properties, campaign JSON
 * round trip and rejection, wire-protocol encode/decode round trips
 * (including failed jobs, the status plane's STATE frame, and
 * fuzz-grade byte-at-a-time stream fragmentation), and ResultFolder
 * ordering/duplicate semantics and its kept journal.
 *
 * Process level (spawning the real nvpsim binary): the worker-count
 * matrix — one campaign served at --workers 1, 2 and 4 must produce
 * --out/--metrics/--report-out files AND stdout byte-identical to the
 * serial `nvpsim sweep` of the same grid; the crash matrix — with
 * --kill-worker-after every first-generation worker SIGKILLs itself
 * mid-shard, each shard is reassigned from its first unfolded job and
 * the merged bytes must still be identical, and a SIGKILLed
 * coordinator served again resumes from its journal to an
 * uninterrupted serve's bytes; the live-telemetry surface — `nvpsim
 * status --watch` against a 4-worker campaign must stream monotone
 * progress ending at jobs_done == jobs_total, still answer (with a
 * "lost" worker row) after --kill-worker-after, end on a live view
 * equal to the merged --metrics, and never show an idle worker as
 * stale; enabling --status-socket + --trace-out must leave all four
 * campaign artifacts byte-identical, and the fleet trace must carry
 * the names and pids perfbench parses (DESIGN.md §16); a finished
 * campaign served again spawns no worker and writes unchanged bytes;
 * a `sweep --arena` SIGKILLed by --kill-after resumes under `sweep
 * --resume` and under `serve` to the uninterrupted bytes, while a
 * journal in an older format is refused untouched; `sweep --arena` and
 * `serve` write byte-identical journals, --kill-after counts only the
 * jobs journaled, and both commands refuse a journaled job that does
 * not parse, leaving the journal as it was; fleet dirs bound
 * to another campaign, in an older build's layout or with a
 * version-1 journal are refused before any worker spawns, left as
 * they were; and the CLI hard-error surface — a bogus worker count, a
 * non-positive --heartbeat-timeout, dead socket paths, `work
 * --fleet-dir`, and every subcommand's strict flag parsing (unknown,
 * repeated and value-less flags, extra arguments, numbers out of
 * range) all die with a clear fatal message before any work starts.
 *
 * Campaign identity: the journal fingerprint of two campaigns is
 * pinned to the value it has had since before the knob table, and every
 * knob in the table must move it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "fleet/campaign.h"
#include "fleet/folder.h"
#include "fleet/protocol.h"
#include "obs/json.h"
#include "runner/journal.h"
#include "runner/shard.h"
#include "runner/sweep.h"
#include "sim/result_io.h"
#include "util/crc32.h"

using namespace inc;

namespace fs = std::filesystem;

// ---- shard planner ---------------------------------------------------

TEST(ShardPlanner, PartitionsEveryJobExactlyOnce)
{
    for (std::size_t jobs = 0; jobs <= 40; ++jobs) {
        for (std::size_t max_shards = 1; max_shards <= 9;
             ++max_shards) {
            const std::vector<runner::ShardRange> plan =
                runner::planShards(jobs, max_shards);
            if (jobs == 0) {
                EXPECT_TRUE(plan.empty());
                continue;
            }
            ASSERT_EQ(plan.size(), std::min(jobs, max_shards));
            std::size_t next = 0;
            std::size_t smallest = jobs, largest = 0;
            for (std::size_t i = 0; i < plan.size(); ++i) {
                EXPECT_EQ(plan[i].id, i);
                EXPECT_EQ(plan[i].begin, next);
                ASSERT_LT(plan[i].begin, plan[i].end);
                next = plan[i].end;
                smallest = std::min(smallest, plan[i].size());
                largest = std::max(largest, plan[i].size());
            }
            EXPECT_EQ(next, jobs);
            EXPECT_LE(largest - smallest, 1u)
                << jobs << " jobs / " << max_shards << " shards";
        }
    }
}

// ---- campaign spec ---------------------------------------------------

TEST(Campaign, JsonRoundTripPreservesEveryField)
{
    fleet::CampaignSpec spec;
    spec.kernels = "sobel,median";
    spec.profiles = "2,3";
    spec.seconds = 0.75;
    spec.seed = 4242;
    spec.mode = "fixed";
    spec.bits = 6;
    spec.minbits = 3;
    spec.policy = "log";
    spec.baseline = true;
    spec.engine = "default";
    spec.strategy = "freezer";
    spec.income_scale = 1.5;
    spec.frame_factor = 2.0;

    fleet::CampaignSpec back;
    std::string error;
    ASSERT_TRUE(fleet::campaignFromJson(fleet::campaignToJson(spec),
                                        &back, &error))
        << error;
    EXPECT_EQ(back.kernels, spec.kernels);
    EXPECT_EQ(back.profiles, spec.profiles);
    EXPECT_DOUBLE_EQ(back.seconds, spec.seconds);
    EXPECT_EQ(back.seed, spec.seed);
    EXPECT_EQ(back.mode, spec.mode);
    EXPECT_EQ(back.bits, spec.bits);
    EXPECT_EQ(back.minbits, spec.minbits);
    EXPECT_EQ(back.policy, spec.policy);
    EXPECT_EQ(back.baseline, spec.baseline);
    EXPECT_EQ(back.strategy, spec.strategy);
    EXPECT_DOUBLE_EQ(back.income_scale, spec.income_scale);
    EXPECT_DOUBLE_EQ(back.frame_factor, spec.frame_factor);
}

TEST(Campaign, RejectsUnknownKeysAndWrongTypes)
{
    fleet::CampaignSpec spec;
    std::string error;
    EXPECT_FALSE(fleet::campaignFromJson(
        R"({"kernels": "sobel", "wokers": 4})", &spec, &error));
    EXPECT_NE(error.find("unknown campaign key 'wokers'"),
              std::string::npos)
        << error;
    EXPECT_FALSE(fleet::campaignFromJson(R"({"seconds": "five"})",
                                         &spec, &error));
    EXPECT_NE(error.find("wrong type"), std::string::npos) << error;
    EXPECT_FALSE(fleet::campaignFromJson("[1,2]", &spec, &error));

    // Values are checked against the knob table, never cast: a
    // fraction, a negative or an out-of-range integer, a malformed
    // profile list and a negative income all fail, naming the knob and
    // the value.
    const std::vector<std::pair<std::string, std::string>> bad = {
        {R"({"seed": 7.9})", "campaign seed must be an integer"},
        {R"({"seed": -5})", "got '-5'"},
        {R"({"bits": 1e10})", "campaign bits must be an integer in [1, 8]"},
        {R"({"profiles": "2x"})", "unknown campaign profiles '2x'"},
        {R"({"profiles": "0,6"})", "unknown campaign profiles '0,6'"},
        {R"({"income_scale": -1})", "campaign income_scale must be"},
        {R"({"frame_factor": -1})", "campaign frame_factor must be"},
        {R"({"seconds": 0.00001})", "one 0.1 ms trace sample"},
        {R"({"engine": "batch"})", "unknown campaign engine 'batch'"},
    };
    for (const auto &[json, needle] : bad) {
        error.clear();
        EXPECT_FALSE(fleet::campaignFromJson(json, &spec, &error)) << json;
        EXPECT_NE(error.find(needle), std::string::npos)
            << json << ": " << error;
    }
}

namespace
{

/** The SweepJournal fingerprint `sweep --arena` and the fleet derive
 *  for @p campaign. */
std::string
campaignFingerprint(const fleet::CampaignSpec &campaign, bool metrics)
{
    const runner::SweepSpec spec = fleet::buildSweepSpec(campaign, metrics);
    return fleet::campaignFingerprint(campaign, spec,
                                      runner::expandSweep(spec));
}

} // namespace

TEST(Campaign, FingerprintsMatchJournalsWrittenBeforeTheKnobTable)
{
    // Computed by the per-flag parser the knob table replaced. Every
    // journal stores its campaign's fingerprint, so a change here
    // would orphan journals on disk.
    const fleet::CampaignSpec defaults;
    EXPECT_EQ(campaignFingerprint(defaults, false), "ad3c37ce");
    EXPECT_EQ(campaignFingerprint(defaults, true), "da3b0758");

    // perfbench's sweep_compute campaign at its default seed.
    fleet::CampaignSpec compute;
    std::string error;
    ASSERT_TRUE(fleet::campaignFromJson(
        R"({"profiles": "3", "seconds": 4, "income_scale": 200,)"
        R"( "frame_factor": 0.2, "seed": 2017})",
        &compute, &error))
        << error;
    EXPECT_EQ(campaignFingerprint(compute, false), "2d30799f");
    EXPECT_EQ(campaignFingerprint(compute, true), "5a374909");
}

TEST(Campaign, EveryKnobFeedsTheFingerprint)
{
    // A text knob has no derivable second value: one added to the
    // table fails here until it gets an entry.
    const std::map<std::string, std::string> other_text = {
        {"kernels", "median"}, {"profiles", "3"},
        {"mode", "fixed"},     {"policy", "log"},
        {"engine", "reference"}, {"strategy", "freezer"}};
    fleet::CampaignSpec base;
    base.kernels = "sobel";
    base.profiles = "2";
    base.seconds = 0.01;
    const std::string base_fingerprint = campaignFingerprint(base, true);
    obs::JsonValue base_doc;
    std::string error;
    ASSERT_TRUE(
        obs::parseJson(fleet::campaignToJson(base), &base_doc, &error));

    for (const util::Flag &flag : fleet::campaignFlags(true)) {
        std::string key = flag.name;
        std::replace(key.begin(), key.end(), '-', '_');
        ASSERT_NE(base_doc.find(key), nullptr) << key;
        const obs::JsonValue &now = *base_doc.find(key);
        obs::JsonValue doc = base_doc;
        if (flag.kind == util::FlagKind::toggle) {
            doc.set(key, obs::JsonValue::of(!now.boolean()));
        } else if (flag.kind == util::FlagKind::text) {
            const auto other = other_text.find(key);
            ASSERT_NE(other, other_text.end())
                << "give text knob '" << key << "' a second value here";
            doc.set(key, obs::JsonValue::of(other->second));
        } else {
            const double up = now.number() + 1;
            doc.set(key, obs::JsonValue::of(util::inRange(flag, up)
                                                ? up
                                                : now.number() - 1));
        }
        fleet::CampaignSpec changed;
        ASSERT_TRUE(fleet::campaignFromJson(doc.dump(), &changed, &error))
            << key << ": " << error;
        EXPECT_NE(campaignFingerprint(changed, true), base_fingerprint)
            << "knob '" << key << "' does not feed the fingerprint";
    }
}

TEST(Campaign, BuildSweepSpecExpandsTheGridDeterministically)
{
    fleet::CampaignSpec spec;
    spec.kernels = "sobel,median";
    spec.profiles = "2,3";
    spec.seconds = 0.2;
    spec.seed = 9;
    const runner::SweepSpec a = fleet::buildSweepSpec(spec, true);
    const runner::SweepSpec b = fleet::buildSweepSpec(spec, true);
    EXPECT_EQ(a.kernels, (std::vector<std::string>{"sobel", "median"}));
    ASSERT_EQ(a.traces.size(), 2u);
    EXPECT_TRUE(a.collect_metrics);
    const std::vector<runner::JobSpec> ja = runner::expandSweep(a);
    const std::vector<runner::JobSpec> jb = runner::expandSweep(b);
    ASSERT_EQ(ja.size(), 4u);
    ASSERT_EQ(ja.size(), jb.size());
    for (std::size_t i = 0; i < ja.size(); ++i) {
        EXPECT_EQ(ja[i].rng_seed, jb[i].rng_seed);
        EXPECT_EQ(ja[i].kernel, jb[i].kernel);
    }

    // The fingerprint extra is stable, and sensitive to config flags.
    const std::string extra =
        fleet::campaignFingerprintExtra(spec, true);
    EXPECT_EQ(extra, fleet::campaignFingerprintExtra(spec, true));
    EXPECT_NE(extra, fleet::campaignFingerprintExtra(spec, false));
    fleet::CampaignSpec other = spec;
    other.policy = "log";
    EXPECT_NE(extra, fleet::campaignFingerprintExtra(other, true));
}

// ---- wire protocol ---------------------------------------------------

namespace
{

runner::JobSpec
jobSpecAt(std::size_t index)
{
    runner::JobSpec spec;
    spec.index = index;
    spec.kernel = "sobel";
    spec.trace_name = "trace";
    spec.variant = "base";
    return spec;
}

runner::JobResult
okJobResult(std::size_t index, bool with_metrics)
{
    runner::JobResult jr;
    jr.spec = jobSpecAt(index);
    jr.attempts = 1;
    jr.ok = true;
    jr.result.forward_progress = 123 + index;
    jr.result.backups = 7;
    jr.result.on_time_fraction = 0.625;
    jr.result.mean_psnr = 31.25;
    jr.result.frames_scored = 4;
    if (with_metrics)
        jr.metrics.counter("test.counter").value =
            static_cast<double>(10 + index);
    return jr;
}

/** Decode one encoded frame, feeding the reader 1 byte at a time. */
fleet::DecodedResult
decodeFrameBytewise(const std::string &frame)
{
    fleet::MessageReader reader;
    fleet::Message message;
    std::string error;
    bool got = false;
    for (std::size_t i = 0; i < frame.size(); ++i) {
        reader.feed(frame.data() + i, 1);
        if (reader.next(&message, &error)) {
            got = true;
            break;
        }
        EXPECT_TRUE(error.empty()) << error;
    }
    EXPECT_TRUE(got) << "frame never completed";
    fleet::DecodedResult decoded;
    EXPECT_TRUE(fleet::decodeResult(message, &decoded, &error))
        << error;
    return decoded;
}

} // namespace

TEST(FleetProtocol, ResultRoundTripIsBitExact)
{
    const runner::JobResult jr = okJobResult(5, true);
    const fleet::DecodedResult decoded =
        decodeFrameBytewise(fleet::encodeResult(jr));

    runner::JobResult back;
    std::string error;
    ASSERT_TRUE(fleet::resultFromDecoded(decoded, jr.spec, &back,
                                         &error))
        << error;
    EXPECT_TRUE(back.ok);
    EXPECT_EQ(back.attempts, jr.attempts);
    EXPECT_EQ(sim::serializeResult(back.result),
              sim::serializeResult(jr.result));
    EXPECT_EQ(back.metrics.toJson(), jr.metrics.toJson());
}

TEST(FleetProtocol, FailedJobTravelsWithItsError)
{
    runner::JobResult jr;
    jr.spec = jobSpecAt(2);
    jr.attempts = 2;
    jr.ok = false;
    jr.error = "injected failure (testing)";

    const fleet::DecodedResult decoded =
        decodeFrameBytewise(fleet::encodeResult(jr));
    EXPECT_FALSE(decoded.ok);
    EXPECT_EQ(decoded.attempts, 2);
    EXPECT_TRUE(decoded.result_text.empty());
    runner::JobResult back;
    std::string error;
    ASSERT_TRUE(fleet::resultFromDecoded(decoded, jr.spec, &back,
                                         &error))
        << error;
    EXPECT_FALSE(back.ok);
    EXPECT_EQ(back.error, jr.error);
}

TEST(FleetProtocol, ControlMessagesRoundTrip)
{
    std::string fp;
    long pid = 0;
    ASSERT_TRUE(fleet::parseHello("HELLO abc123 4711", &fp, &pid));
    EXPECT_EQ(fp, "abc123");
    EXPECT_EQ(pid, 4711);

    runner::ShardRange shard{3, 8, 12};
    runner::ShardRange back;
    const std::string frame = fleet::encodeShard(shard);
    ASSERT_TRUE(
        fleet::parseShard(frame.substr(0, frame.size() - 1), &back));
    EXPECT_EQ(back.id, 3u);
    EXPECT_EQ(back.begin, 8u);
    EXPECT_EQ(back.end, 12u);
    EXPECT_FALSE(fleet::parseShard("SHARD 0 5 5", &back));

    std::size_t shard_id = 0;
    ASSERT_TRUE(fleet::parseDone("DONE 9", &shard_id));
    EXPECT_EQ(shard_id, 9u);

    // A malformed RESULT header is a framing error, not a silent skip.
    fleet::MessageReader reader;
    const std::string bogus = "RESULT 0 1 1 zap 0 0\n";
    reader.feed(bogus.data(), bogus.size());
    fleet::Message message;
    std::string error;
    EXPECT_FALSE(reader.next(&message, &error));
    EXPECT_NE(error.find("malformed RESULT header"), std::string::npos)
        << error;
}

// ---- status-plane frame (STATE) ----------------------------------------

namespace
{

/** Read one whole frame of any kind, fed one byte at a time. */
fleet::Message
readFrameBytewise(const std::string &frame)
{
    fleet::MessageReader reader;
    fleet::Message message;
    std::string error;
    bool got = false;
    for (std::size_t i = 0; i < frame.size(); ++i) {
        reader.feed(frame.data() + i, 1);
        if (reader.next(&message, &error)) {
            got = true;
            EXPECT_EQ(i, frame.size() - 1)
                << "frame completed before its last byte";
            break;
        }
        EXPECT_TRUE(error.empty()) << error;
    }
    EXPECT_TRUE(got) << "frame never completed";
    return message;
}

} // namespace

TEST(FleetProtocol, StateRoundTripsOneByteAtATime)
{
    const std::string snapshot =
        R"({"jobs_done":4,"jobs_total":36,"schema":"inc-fleet-status-v1"})";
    const fleet::Message message =
        readFrameBytewise(fleet::encodeState(snapshot));
    std::string back, error;
    ASSERT_TRUE(fleet::decodeState(message, &back, &error)) << error;
    EXPECT_EQ(back, snapshot);

    // Truncated payload length is a decode error, not a crash.
    fleet::Message truncated = message;
    truncated.payload.pop_back();
    EXPECT_FALSE(fleet::decodeState(truncated, &back, &error));
}

// ---- result folder ---------------------------------------------------

namespace
{

fleet::DecodedResult
decodeFrame(const std::string &frame)
{
    fleet::MessageReader reader;
    reader.feed(frame.data(), frame.size());
    fleet::Message message;
    std::string error;
    EXPECT_TRUE(reader.next(&message, &error)) << error;
    fleet::DecodedResult decoded;
    EXPECT_TRUE(fleet::decodeResult(message, &decoded, &error))
        << error;
    return decoded;
}

} // namespace

TEST(ResultFolder, FoldsOutOfOrderDeliveriesIntoIndexOrder)
{
    std::vector<runner::JobSpec> jobs = {jobSpecAt(0), jobSpecAt(1),
                                         jobSpecAt(2)};
    fleet::ResultFolder folder(jobs);
    std::string error;
    for (const std::size_t index : {2u, 0u, 1u}) {
        ASSERT_TRUE(folder.fold(
            decodeFrame(fleet::encodeResult(okJobResult(index, true))),
            &error))
            << error;
    }
    EXPECT_TRUE(folder.complete());
    EXPECT_TRUE(folder.rangeComplete(0, 3));
    const runner::SweepReport report = folder.takeReport(0.0, 1);
    ASSERT_EQ(report.results.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(report.results[i].spec.index, i);
        EXPECT_EQ(report.results[i].result.forward_progress, 123 + i);
    }
}

TEST(ResultFolder, DuplicateDeliveriesMustBeByteIdentical)
{
    std::vector<runner::JobSpec> jobs = {jobSpecAt(0), jobSpecAt(1)};
    fleet::ResultFolder folder(jobs);
    std::string error;

    // A journal warm-restart replays the same bytes: accepted.
    ASSERT_TRUE(folder.fold(
        decodeFrame(fleet::encodeResult(okJobResult(0, true))),
        &error));
    ASSERT_TRUE(folder.fold(
        decodeFrame(fleet::encodeResult(okJobResult(0, true))),
        &error));
    EXPECT_EQ(folder.filledCount(), 1u);
    EXPECT_FALSE(folder.rangeComplete(0, 2));

    // A differing duplicate means a nondeterministic worker: error.
    runner::JobResult drifted = okJobResult(0, true);
    drifted.result.backups = 8;
    EXPECT_FALSE(folder.fold(
        decodeFrame(fleet::encodeResult(drifted)), &error));
    EXPECT_NE(error.find("nondeterministic"), std::string::npos)
        << error;

    // Out-of-range indices are rejected, never folded.
    EXPECT_FALSE(folder.fold(
        decodeFrame(fleet::encodeResult(okJobResult(7, true))),
        &error));
}

TEST(ResultFolder, KeptJournalRefoldsEveryOkJobItFolded)
{
    // The coordinator's restart in miniature: a folder keeping a
    // journal records each first fold; a fresh folder over the
    // reopened journal holds those jobs before any frame arrives.
    const std::string dir = ::testing::TempDir() + "fleet-folder-" +
                            std::to_string(::getpid());
    fs::remove_all(dir);
    const std::vector<runner::JobSpec> jobs = {jobSpecAt(0), jobSpecAt(1),
                                               jobSpecAt(2)};
    runner::JobResult failed = okJobResult(2, true);
    failed.ok = false;
    failed.error = "injected";
    failed.metrics = obs::MetricsRegistry();
    std::string error;
    {
        const auto journal = runner::SweepJournal::open(dir);
        fleet::ResultFolder folder(jobs);
        ASSERT_TRUE(folder.keepJournal(journal.get(), "cafe0001", &error))
            << error;
        for (const runner::JobResult &jr :
             {okJobResult(1, true), okJobResult(1, true), failed})
            ASSERT_TRUE(folder.fold(decodeFrame(fleet::encodeResult(jr)),
                                    &error))
                << error;
        // One record for job 1: not its duplicate, not the failed job.
        EXPECT_EQ(journal->completedCount(), 1u);
    }

    const auto journal = runner::SweepJournal::open(dir);
    fleet::ResultFolder other(jobs);
    EXPECT_FALSE(other.keepJournal(journal.get(), "cafe0002", &error));
    EXPECT_NE(error.find("holds journals for a different campaign"),
              std::string::npos)
        << error;

    fleet::ResultFolder folder(jobs);
    ASSERT_TRUE(folder.keepJournal(journal.get(), "cafe0001", &error))
        << error;
    EXPECT_EQ(folder.filledCount(), 1u);
    EXPECT_EQ(folder.firstUnfolded(0, 3), 0u);
    EXPECT_EQ(folder.firstUnfolded(1, 3), 2u);
    EXPECT_EQ(folder.result(1).result.forward_progress, 124u);

    // A re-run of the journaled job must carry the journaled bytes.
    runner::JobResult drifted = okJobResult(1, true);
    drifted.result.backups = 8;
    EXPECT_FALSE(folder.fold(decodeFrame(fleet::encodeResult(drifted)),
                             &error));
    for (const std::size_t index : {1u, 0u, 2u})
        ASSERT_TRUE(folder.fold(
            decodeFrame(fleet::encodeResult(okJobResult(index, true))),
            &error))
            << error;
    EXPECT_TRUE(folder.complete());
    EXPECT_EQ(journal->completedCount(), 3u);
    fs::remove_all(dir);
}

TEST(ResultFolder, RefusesAJournalWhoseBindDidNotPersist)
{
    // The log dies one byte into the bind record: the folder must not
    // run a campaign it cannot keep.
    const std::string dir = ::testing::TempDir() + "fleet-bind-" +
                            std::to_string(::getpid());
    fs::remove_all(dir);
    runner::SweepJournal::Options options;
    options.fail_after_log_bytes = 1;
    const auto journal = runner::SweepJournal::open(dir, options);
    fleet::ResultFolder folder({jobSpecAt(0)});
    std::string error;
    EXPECT_FALSE(folder.keepJournal(journal.get(), "cafe0001", &error));
    EXPECT_EQ(error, "could not persist its journal's bind record");
    fs::remove_all(dir);
}

// ---- process-level matrix (the acceptance surface) -------------------

#ifdef INC_NVPSIM_PATH
namespace
{

/** Run a shell command; returns its exit code and combined output. */
int
runCommand(const std::string &cmd, std::string *output)
{
    FILE *pipe = ::popen((cmd + " 2>&1").c_str(), "r");
    if (!pipe)
        return -1;
    char buf[256];
    while (std::fgets(buf, sizeof buf, pipe))
        *output += buf;
    const int status = ::pclose(pipe);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string
readFile(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    EXPECT_TRUE(static_cast<bool>(f)) << "missing " << path;
    std::ostringstream ss;
    ss << f.rdbuf();
    return ss.str();
}

/** Fresh scratch directory under the test temp root. */
std::string
freshDir(const std::string &tag)
{
    const std::string dir = ::testing::TempDir() + "fleet-" + tag +
                            "-" + std::to_string(::getpid());
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

/** The campaign used across the matrix: 2 kernels x 2 profiles. */
void
writeCampaign(const std::string &path)
{
    std::ofstream f(path, std::ios::binary);
    f << R"({"kernels": "sobel,median", "profiles": "2,3",)"
      << R"( "seconds": 0.3, "seed": 77})";
    ASSERT_TRUE(static_cast<bool>(f));
}

/** The equivalent serial sweep's flag spelling of that campaign. */
std::string
serialSweepCommand()
{
    return std::string(INC_NVPSIM_PATH) +
           " sweep --kernels sobel,median --profiles 2,3"
           " --seconds 0.3 --seed 77 --jobs 1";
}

// Parenthesized so runCommand's trailing 2>&1 cannot override the
// stderr capture: scheduling noise goes to stderr.txt, the
// determinism surface to stdout.txt.
const char *const kOutputFlags =
    " --out out.csv --metrics metrics.json --report"
    " --report-out report.json > stdout.txt 2> stderr.txt )";

void
expectSameCampaignBytes(const std::string &serial_dir,
                        const std::string &fleet_dir,
                        const std::string &label)
{
    for (const char *file :
         {"out.csv", "metrics.json", "report.json", "stdout.txt"}) {
        EXPECT_EQ(readFile(serial_dir + "/" + file),
                  readFile(fleet_dir + "/" + file))
            << label << ": " << file;
    }
}

/** Launch @p cmd detached; its exit code lands in @p exit_file. */
void
launchBackground(const std::string &cmd, const std::string &exit_file)
{
    const std::string shell = "( " + cmd + "; echo $? > " + exit_file +
                              " ) > /dev/null 2>&1 &";
    ASSERT_EQ(std::system(shell.c_str()), 0) << shell;
}

/** A sweep-journal log header in the older format: version 1, valid
 *  CRC. Journals refuse it by name ("format version 1"). */
std::string
versionOneLogHeader()
{
    std::string header(32, '\0');
    const std::uint64_t magic = 0x31474f4c414e4952ULL; // "RINALOG1"
    const std::uint32_t version = 1;
    std::memcpy(header.data(), &magic, sizeof magic);
    std::memcpy(header.data() + 8, &version, sizeof version);
    const std::uint32_t crc = util::crc32(header.data(), 28);
    std::memcpy(header.data() + 28, &crc, sizeof crc);
    return header;
}

/** Live processes whose command line contains @p needle. */
std::vector<std::string>
processesMentioning(const std::string &needle)
{
    std::vector<std::string> found;
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator("/proc", ec)) {
        const std::string pid = entry.path().filename().string();
        if (pid.find_first_not_of("0123456789") != std::string::npos)
            continue;
        std::ifstream f(entry.path() / "cmdline", std::ios::binary);
        std::string cmdline((std::istreambuf_iterator<char>(f)),
                            std::istreambuf_iterator<char>());
        std::replace(cmdline.begin(), cmdline.end(), '\0', ' ');
        if (cmdline.find(needle) != std::string::npos)
            found.push_back(pid + ": " + cmdline);
    }
    return found;
}

bool
waitForPath(const std::string &path, double seconds)
{
    for (int i = 0; i < static_cast<int>(seconds / 0.02); ++i) {
        if (fs::exists(path))
            return true;
        ::usleep(20000);
    }
    return fs::exists(path);
}

/** Parse one `status --watch --json` line; returns jobs_done and
 *  jobs_total and the raw document for further assertions. */
void
parseStatusLine(const std::string &line, double *jobs_done,
                double *jobs_total, obs::JsonValue *doc)
{
    std::string error;
    ASSERT_TRUE(obs::parseJson(line, doc, &error))
        << error << "\n" << line;
    const obs::JsonValue *schema = doc->find("schema");
    ASSERT_NE(schema, nullptr);
    EXPECT_EQ(schema->string(), "inc-fleet-status-v1");
    ASSERT_NE(doc->find("jobs_done"), nullptr);
    ASSERT_NE(doc->find("jobs_total"), nullptr);
    *jobs_done = doc->find("jobs_done")->number();
    *jobs_total = doc->find("jobs_total")->number();
}

/** Counter @p name of a --fleet-metrics telemetry file; -1 when
 *  absent. */
double
fleetCounter(const std::string &path, const char *name)
{
    obs::JsonValue doc;
    std::string error;
    EXPECT_TRUE(obs::parseJson(readFile(path), &doc, &error)) << error;
    const obs::JsonValue *fleet = doc.find("fleet");
    const obs::JsonValue *counters =
        fleet != nullptr ? fleet->find("counters") : nullptr;
    const obs::JsonValue *value =
        counters != nullptr ? counters->find(name) : nullptr;
    return value != nullptr ? value->number() : -1.0;
}

/** The names in @p dir. */
std::vector<std::string>
entriesOf(const std::string &dir)
{
    std::vector<std::string> names;
    for (const auto &entry : fs::directory_iterator(dir))
        names.push_back(entry.path().filename().string());
    std::sort(names.begin(), names.end());
    return names;
}

} // namespace

TEST(FleetMatrix, WorkerCountsProduceBytesIdenticalToSerialSweep)
{
    const std::string base = freshDir("matrix");
    const std::string campaign = base + "/campaign.json";
    writeCampaign(campaign);

    const std::string serial_dir = base + "/serial";
    fs::create_directories(serial_dir);
    std::string out;
    ASSERT_EQ(runCommand("cd " + serial_dir + " && ( " +
                             serialSweepCommand() + kOutputFlags,
                         &out),
              0)
        << out;

    for (const int workers : {1, 2, 4}) {
        const std::string dir =
            base + "/w" + std::to_string(workers);
        fs::create_directories(dir);
        std::string fleet_out;
        ASSERT_EQ(runCommand("cd " + dir + " && ( " +
                                 std::string(INC_NVPSIM_PATH) +
                                 " serve " + campaign + " --workers " +
                                 std::to_string(workers) +
                                 " --fleet-dir fd" + kOutputFlags,
                             &fleet_out),
                  0)
            << fleet_out;
        expectSameCampaignBytes(
            serial_dir, dir,
            "--workers " + std::to_string(workers));
        EXPECT_NE(readFile(dir + "/stderr.txt").find("fleet:"),
                  std::string::npos);
    }
    fs::remove_all(base);
}

TEST(FleetCrash, KillingEveryWorkerOnceLeavesBytesUnchanged)
{
    // 16 jobs: eight two-job shards at --workers 2, so a worker that
    // dies after its first result leaves half a shard to reassign.
    const std::string grid =
        " --kernels sobel,median,integral,susan.edges --profiles 1,2,3,4"
        " --seconds 0.3 --seed 77";
    const std::string base = freshDir("crash");
    const std::string campaign = base + "/campaign.json";
    {
        std::ofstream f(campaign, std::ios::binary);
        f << R"({"kernels": "sobel,median,integral,susan.edges",)"
          << R"( "profiles": "1,2,3,4", "seconds": 0.3, "seed": 77})";
    }

    const std::string serial_dir = base + "/serial";
    fs::create_directories(serial_dir);
    std::string out;
    ASSERT_EQ(runCommand("cd " + serial_dir + " && ( " +
                             std::string(INC_NVPSIM_PATH) + " sweep" +
                             grid + " --jobs 1" + kOutputFlags,
                         &out),
              0)
        << out;

    // Every first-generation worker SIGKILLs itself after sending one
    // result; each shard is reassigned from its first unfolded job, so
    // the merged bytes must not move and no result crosses the wire
    // twice.
    const std::string serve = std::string(INC_NVPSIM_PATH) + " serve " +
                              campaign +
                              " --workers 2 --fleet-dir fd"
                              " --fleet-metrics fm.json";
    for (const char *run : {"clean", "killed"}) {
        const std::string dir = base + "/" + run;
        fs::create_directories(dir);
        std::string fleet_out;
        ASSERT_EQ(runCommand("cd " + dir + " && ( " + serve +
                                 (run == std::string("killed")
                                      ? " --kill-worker-after 1"
                                      : "") +
                                 kOutputFlags,
                             &fleet_out),
                  0)
            << fleet_out;
        expectSameCampaignBytes(serial_dir, dir, run);
    }
    const std::string fleet_err = readFile(base + "/killed/stderr.txt");
    std::size_t reassigned = 0;
    for (std::size_t at = fleet_err.find("reassigning shard");
         at != std::string::npos;
         at = fleet_err.find("reassigning shard", at + 1))
        ++reassigned;
    EXPECT_EQ(reassigned, 2u) << fleet_err;
    EXPECT_NE(fleet_err.find(" from job "), std::string::npos) << fleet_err;
    EXPECT_EQ(fleetCounter(base + "/killed/fm.json", "fleet.workers.lost"),
              2.0);
    EXPECT_EQ(fleetCounter(base + "/killed/fm.json", "fleet.merge.bytes"),
              fleetCounter(base + "/clean/fm.json", "fleet.merge.bytes"));
    fs::remove_all(base);
}

TEST(FleetCrash, KilledCoordinatorResumesToUninterruptedBytes)
{
    // SIGKILL `serve` itself once its journal holds a job: a watcher
    // must exit 1 (the stream ended short of the campaign), no worker
    // may outlive the coordinator, and serving again must resume from
    // the journal to an uninterrupted serve's bytes.
    const std::string base = freshDir("coordinator-kill");
    const std::string campaign = base + "/campaign.json";
    {
        // Eight jobs in sequence: time to kill between them.
        std::ofstream f(campaign, std::ios::binary);
        f << R"({"kernels": "sobel,median", "profiles": "1,2,3,4",)"
          << R"( "seconds": 4, "seed": 77})";
    }
    const std::string serve = std::string(INC_NVPSIM_PATH) + " serve " +
                              campaign + " --workers 1 --fleet-dir fd";
    const std::string ref_dir = base + "/uninterrupted";
    const std::string dir = base + "/killed";
    fs::create_directories(ref_dir);
    fs::create_directories(dir);
    std::string log;
    ASSERT_EQ(runCommand("cd " + ref_dir + " && ( " + serve + kOutputFlags,
                         &log),
              0)
        << log;

    // --metrics as below: metrics collection is part of the campaign.
    ASSERT_EQ(std::system(("cd " + dir + " && { " + serve +
                           " --status-socket --metrics first.json"
                           " > /dev/null 2> first.err &"
                           " echo $! > serve.pid; }")
                              .c_str()),
              0);
    const pid_t pid = std::stoi(readFile(dir + "/serve.pid"));
    ASSERT_TRUE(waitForPath(dir + "/fd/status.sock", 30.0));
    ASSERT_EQ(std::system(("( " + std::string(INC_NVPSIM_PATH) +
                           " status " + dir +
                           "/fd --watch --json > " + dir +
                           "/watch.txt 2> " + dir +
                           "/watch.err; echo $? > " + dir +
                           "/watch.exit ) &")
                              .c_str()),
              0);
    // The journal holds a job once it outgrows its 32-byte header and
    // the 40-byte bind record; the watcher is attached once it has a
    // frame.
    const auto bytesOf = [](const std::string &path) {
        std::error_code ec;
        const std::uintmax_t size = fs::file_size(path, ec);
        return ec ? std::uintmax_t{0} : size;
    };
    const std::string journal = dir + "/fd/arena.log";
    for (int i = 0; i < 3000; ++i) {
        if (bytesOf(journal) > 72 && bytesOf(dir + "/watch.txt") > 0)
            break;
        ::usleep(5000);
    }
    ASSERT_GT(bytesOf(journal), 72u);
    ASSERT_EQ(::kill(pid, SIGKILL), 0);

    ASSERT_TRUE(waitForPath(dir + "/watch.exit", 30.0));
    EXPECT_EQ(readFile(dir + "/watch.exit"), "1\n");
    const std::string watch_err = readFile(dir + "/watch.err");
    EXPECT_NE(watch_err.find("jobs done, before the campaign finished"),
              std::string::npos)
        << watch_err;
    std::vector<std::string> left;
    for (int i = 0; i < 250; ++i) {
        left = processesMentioning(dir + "/fd/fleet.sock");
        if (left.empty())
            break;
        ::usleep(20000);
    }
    EXPECT_TRUE(left.empty()) << "outlived its coordinator: "
                              << left.front();

    log.clear();
    ASSERT_EQ(runCommand("cd " + dir + " && ( " + serve + kOutputFlags,
                         &log),
              0)
        << log;
    const std::string err = readFile(dir + "/stderr.txt");
    EXPECT_NE(err.find("resuming campaign"), std::string::npos) << err;
    expectSameCampaignBytes(ref_dir, dir, "coordinator killed and resumed");
    EXPECT_EQ(entriesOf(dir + "/fd"), std::vector<std::string>{"arena.log"});
    fs::remove_all(base);
}

// ---- live telemetry plane (DESIGN.md §16) ----------------------------

/** A slower campaign (more simulated seconds) so the status watcher
 *  reliably attaches while workers are still running. */
void
writeSlowCampaign(const std::string &path)
{
    std::ofstream f(path, std::ios::binary);
    f << R"({"kernels": "sobel,median", "profiles": "2,3",)"
      << R"( "seconds": 2, "seed": 77})";
    ASSERT_TRUE(static_cast<bool>(f));
}

TEST(FleetStatus, WatchStreamsMonotoneProgressToCompletion)
{
    const std::string base = freshDir("status");
    const std::string campaign = base + "/campaign.json";
    writeSlowCampaign(campaign);

    launchBackground("cd " + base + " && " +
                         std::string(INC_NVPSIM_PATH) + " serve " +
                         campaign +
                         " --workers 4 --fleet-dir fd --status-socket",
                     base + "/serve.exit");
    ASSERT_TRUE(waitForPath(base + "/fd/status.sock", 30.0))
        << "status socket never appeared";

    // --watch follows the STATE stream until the coordinator closes
    // the plane; the final frame always reports a finished campaign.
    std::string stream;
    ASSERT_EQ(runCommand(std::string(INC_NVPSIM_PATH) + " status " +
                             base + "/fd --watch --json",
                         &stream),
              0)
        << stream;
    ASSERT_TRUE(waitForPath(base + "/serve.exit", 60.0));
    EXPECT_EQ(readFile(base + "/serve.exit"), "0\n");

    std::istringstream lines(stream);
    std::string line;
    double prev_done = -1.0, jobs_done = 0.0, jobs_total = 0.0;
    std::size_t frames = 0;
    while (std::getline(lines, line)) {
        obs::JsonValue doc;
        parseStatusLine(line, &jobs_done, &jobs_total, &doc);
        EXPECT_EQ(jobs_total, 4.0);
        EXPECT_GE(jobs_done, prev_done) << "progress went backwards";
        prev_done = jobs_done;
        ++frames;
    }
    ASSERT_GE(frames, 1u);
    EXPECT_EQ(jobs_done, jobs_total)
        << "final frame must report a finished campaign";
    fs::remove_all(base);
}

TEST(FleetStatus, StillAnswersAfterWorkerLossAndReportsIt)
{
    const std::string base = freshDir("status-kill");
    const std::string campaign = base + "/campaign.json";
    writeSlowCampaign(campaign);

    launchBackground("cd " + base + " && " +
                         std::string(INC_NVPSIM_PATH) + " serve " +
                         campaign +
                         " --workers 2 --kill-worker-after 1"
                         " --fleet-dir fd --status-socket",
                     base + "/serve.exit");
    ASSERT_TRUE(waitForPath(base + "/fd/status.sock", 30.0))
        << "status socket never appeared";

    std::string stream;
    ASSERT_EQ(runCommand(std::string(INC_NVPSIM_PATH) + " status " +
                             base + "/fd --watch --json",
                         &stream),
              0)
        << stream;
    ASSERT_TRUE(waitForPath(base + "/serve.exit", 60.0));
    EXPECT_EQ(readFile(base + "/serve.exit"), "0\n");

    // Every first-generation worker died; lost rows stay in the
    // worker table, so the final frame must carry degraded health
    // alongside a finished campaign.
    std::istringstream lines(stream);
    std::string line, last;
    double jobs_done = 0.0, jobs_total = 0.0;
    while (std::getline(lines, line))
        last = line;
    ASSERT_FALSE(last.empty());
    obs::JsonValue doc;
    parseStatusLine(last, &jobs_done, &jobs_total, &doc);
    EXPECT_EQ(jobs_done, jobs_total);
    EXPECT_NE(last.find("\"health\":\"lost\""), std::string::npos)
        << last;
    fs::remove_all(base);
}

TEST(FleetStatus, OnlyAWorkerHoldingAShardReadsStale)
{
    // Only a worker that holds a shard owes frames, so only it can be
    // dropped or read "stale" (the drop's rule at half the timeout).
    // `--workers 2` on a one-job campaign once spawned a second,
    // shard-less worker that read "stale" from half the timeout on,
    // final frame included. The timeout is set from the job's own
    // time: an idle worker would pass half of it, the busy one never
    // all of it.
    const std::string base = freshDir("status-stale");
    const std::string campaign = base + "/campaign.json";
    {
        std::ofstream f(campaign, std::ios::binary);
        f << R"({"kernels": "sobel", "profiles": "2", "seconds": 30,)"
          << R"( "seed": 5})";
    }
    std::string log;
    const auto start = std::chrono::steady_clock::now();
    ASSERT_EQ(runCommand(std::string(INC_NVPSIM_PATH) +
                             " sweep --kernels sobel --profiles 2"
                             " --seconds 30 --seed 5 --jobs 1",
                         &log),
              0)
        << log;
    const double job_s = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();

    launchBackground("cd " + base + " && " +
                         std::string(INC_NVPSIM_PATH) + " serve " +
                         campaign +
                         " --workers 2 --fleet-dir fd --status-socket"
                         " --heartbeat-timeout=" +
                         std::to_string(1.7 * job_s),
                     base + "/serve.exit");
    ASSERT_TRUE(waitForPath(base + "/fd/status.sock", 30.0))
        << "status socket never appeared";
    std::string stream;
    ASSERT_EQ(runCommand(std::string(INC_NVPSIM_PATH) + " status " +
                             base + "/fd --watch --json",
                         &stream),
              0)
        << stream;
    ASSERT_TRUE(waitForPath(base + "/serve.exit", 60.0));
    EXPECT_EQ(readFile(base + "/serve.exit"), "0\n");

    std::istringstream lines(stream);
    std::string line;
    double jobs_done = 0.0, jobs_total = 0.0;
    obs::JsonValue doc;
    while (std::getline(lines, line)) {
        parseStatusLine(line, &jobs_done, &jobs_total, &doc);
        for (const auto &row : doc.find("workers")->items()) {
            if (row.find("health")->string() == "stale") {
                EXPECT_GE(row.find("shard")->number(), 0.0) << line;
            }
        }
    }
    EXPECT_EQ(jobs_done, jobs_total);
    EXPECT_EQ(line.find("\"stale\""), std::string::npos) << line;
    fs::remove_all(base);
}

TEST(FleetStatus, ResumedCampaignRatesOnlyTheJobsThisServeFolded)
{
    // The journaled jobs of a resumed campaign ran before this serve
    // did: they count in jobs_done, never in throughput_jps, and eta_s
    // stays -1 until a job is folded. A sweep SIGKILLed after 2 of 4
    // jobs once resumed to a first frame reading 2 jobs over a few ms.
    const std::string base = freshDir("status-resume");
    const std::string campaign = base + "/campaign.json";
    writeSlowCampaign(campaign);
    std::string log;
    runCommand("cd " + base + " && ( " + std::string(INC_NVPSIM_PATH) +
                   " sweep --kernels sobel,median --profiles 2,3"
                   " --seconds 2 --seed 77 --jobs 1 --arena fd"
                   " --kill-after 2; echo exit=$? )",
               &log);
    ASSERT_NE(log.find("exit=137"), std::string::npos) << log;

    launchBackground("cd " + base + " && " +
                         std::string(INC_NVPSIM_PATH) + " serve " +
                         campaign +
                         " --workers 1 --fleet-dir fd --status-socket",
                     base + "/serve.exit");
    ASSERT_TRUE(waitForPath(base + "/fd/status.sock", 30.0))
        << "status socket never appeared";
    std::string stream;
    ASSERT_EQ(runCommand(std::string(INC_NVPSIM_PATH) + " status " +
                             base + "/fd --watch --json",
                         &stream),
              0)
        << stream;
    ASSERT_TRUE(waitForPath(base + "/serve.exit", 60.0));
    EXPECT_EQ(readFile(base + "/serve.exit"), "0\n");

    std::istringstream lines(stream);
    std::string line;
    double jobs_done = 0.0, jobs_total = 0.0;
    std::size_t frames = 0;
    while (std::getline(lines, line)) {
        obs::JsonValue doc;
        parseStatusLine(line, &jobs_done, &jobs_total, &doc);
        ++frames;
        const double elapsed_s = doc.find("elapsed_s")->number();
        const double rate = doc.find("throughput_jps")->number();
        const double eta_s = doc.find("eta_s")->number();
        EXPECT_GE(jobs_done, 2.0) << line;
        EXPECT_NEAR(rate * elapsed_s, jobs_done - 2.0, 1e-3) << line;
        if (jobs_done == 2.0) {
            EXPECT_EQ(eta_s, -1.0) << line;
        } else if (jobs_done < jobs_total) {
            EXPECT_NEAR(eta_s, (jobs_total - jobs_done) / rate,
                        1e-3 * eta_s)
                << line;
        }
    }
    ASSERT_GE(frames, 1u);
    EXPECT_EQ(jobs_done, 4.0);
    EXPECT_EQ(jobs_total, 4.0);
    fs::remove_all(base);
}

TEST(FleetStatus, FinalLiveViewEqualsTheMergedMetrics)
{
    // The live view is a running merge of the folded jobs' metrics, so
    // once every job is in, its counters and outage percentiles must
    // read exactly what the campaign's --metrics file reads.
    const std::string base = freshDir("status-live");
    const std::string campaign = base + "/campaign.json";
    writeSlowCampaign(campaign);

    launchBackground("cd " + base + " && " +
                         std::string(INC_NVPSIM_PATH) + " serve " +
                         campaign +
                         " --workers 2 --fleet-dir fd --status-socket"
                         " --metrics m.json",
                     base + "/serve.exit");
    ASSERT_TRUE(waitForPath(base + "/fd/status.sock", 30.0))
        << "status socket never appeared";

    std::string stream;
    ASSERT_EQ(runCommand(std::string(INC_NVPSIM_PATH) + " status " +
                             base + "/fd --watch --json",
                         &stream),
              0)
        << stream;
    ASSERT_TRUE(waitForPath(base + "/serve.exit", 60.0));
    EXPECT_EQ(readFile(base + "/serve.exit"), "0\n");

    std::istringstream lines(stream);
    std::string line, last;
    while (std::getline(lines, line))
        last = line;
    ASSERT_FALSE(last.empty());
    obs::JsonValue doc;
    double jobs_done = 0.0, jobs_total = 0.0;
    parseStatusLine(last, &jobs_done, &jobs_total, &doc);
    ASSERT_EQ(jobs_done, jobs_total);
    const obs::JsonValue *live = doc.find("live");
    ASSERT_NE(live, nullptr) << last;

    obs::JsonValue metrics;
    std::string error;
    ASSERT_TRUE(obs::parseJson(readFile(base + "/m.json"), &metrics,
                               &error))
        << error;
    const obs::JsonValue *counters = metrics.find("counters");
    const obs::JsonValue *histograms = metrics.find("histograms");
    ASSERT_NE(counters, nullptr);
    ASSERT_NE(histograms, nullptr);
    const obs::JsonValue *outages = histograms->find("hist.outage_samples");
    ASSERT_NE(outages, nullptr);

    const auto field = [&](const obs::JsonValue &obj, const char *key) {
        const obs::JsonValue *v = obj.find(key);
        EXPECT_NE(v, nullptr) << key << " missing";
        return v != nullptr ? v->number() : -1.0;
    };
    EXPECT_GT(field(*counters, "sim.backup.committed"), 0.0);
    EXPECT_EQ(field(*live, "backups_committed"),
              field(*counters, "sim.backup.committed"));
    EXPECT_EQ(field(*live, "restores"),
              field(*counters, "sim.restore.successes"));
    // Outage samples are 0.1 ms trace ticks; the live view reports ms.
    EXPECT_EQ(field(*live, "outage_p50_ms"), field(*outages, "p50") / 10.0);
    EXPECT_EQ(field(*live, "outage_p95_ms"), field(*outages, "p95") / 10.0);
    EXPECT_EQ(field(*live, "outage_p99_ms"), field(*outages, "p99") / 10.0);
    fs::remove_all(base);
}

TEST(FleetTelemetry, StatusSocketAndTraceLeaveCampaignBytesIdentical)
{
    const std::string base = freshDir("telemetry");
    const std::string campaign = base + "/campaign.json";
    writeCampaign(campaign);

    const std::string serial_dir = base + "/serial";
    fs::create_directories(serial_dir);
    std::string out;
    ASSERT_EQ(runCommand("cd " + serial_dir + " && ( " +
                             serialSweepCommand() + kOutputFlags,
                         &out),
              0)
        << out;

    // The full telemetry plane on: status socket and fleet trace —
    // neither may move a byte of the four campaign artifacts.
    const std::string dir = base + "/live";
    fs::create_directories(dir);
    out.clear();
    ASSERT_EQ(runCommand("cd " + dir + " && ( " +
                             std::string(INC_NVPSIM_PATH) + " serve " +
                             campaign +
                             " --workers 2 --fleet-dir fd"
                             " --status-socket"
                             " --trace-out fleet.trace.json" +
                             kOutputFlags,
                         &out),
              0)
        << out;
    expectSameCampaignBytes(serial_dir, dir, "telemetry plane");

    // The fleet trace is structurally valid Chrome-trace JSON with a
    // process-name record per fleet process (coordinator + workers).
    const std::string trace = readFile(dir + "/fleet.trace.json");
    ASSERT_TRUE(obs::jsonIsValid(trace));
    obs::JsonValue doc;
    std::string error;
    ASSERT_TRUE(obs::parseJson(trace, &doc, &error)) << error;
    const obs::JsonValue *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    std::size_t process_names = 0;
    for (const auto &e : events->items())
        if (e.find("name") != nullptr &&
            e.find("name")->string() == "process_name")
            ++process_names;
    EXPECT_GE(process_names, 3u) << "coordinator + 2 workers";

    // The fleet telemetry snapshot defaults beside --metrics, wrapped
    // under its own top-level key and campaign fingerprint — the
    // campaign metrics document itself stays untouched (asserted
    // byte-identical above).
    const std::string telemetry =
        readFile(dir + "/metrics.json.fleet.json");
    obs::JsonValue tdoc;
    ASSERT_TRUE(obs::parseJson(telemetry, &tdoc, &error)) << error;
    ASSERT_NE(tdoc.find("schema"), nullptr);
    EXPECT_EQ(tdoc.find("schema")->string(), "inc-fleet-telemetry-v1");
    EXPECT_NE(tdoc.find("campaign"), nullptr);
    const obs::JsonValue *fleet = tdoc.find("fleet");
    ASSERT_NE(fleet, nullptr);
    ASSERT_TRUE(fleet->isObject());
    EXPECT_NE(fleet->find("counters"), nullptr);
    fs::remove_all(base);
}

TEST(FleetTelemetry, TraceCarriesTheNamesAndPidsPerfbenchParses)
{
    // perfbench derives its fleet.* layer (perfbench/benchlib.py,
    // fleet_layer_metrics) from these events of a 2-worker
    // `serve --trace-out`; a traced benchmark run fails without them.
    const std::string base = freshDir("trace-shape");
    const std::string campaign = base + "/campaign.json";
    writeSlowCampaign(campaign);
    std::string out;
    ASSERT_EQ(runCommand("cd " + base + " && " +
                             std::string(INC_NVPSIM_PATH) + " serve " +
                             campaign +
                             " --workers 2 --fleet-dir fd"
                             " --trace-out t.json --fleet-metrics fm.json",
                         &out),
              0)
        << out;

    obs::JsonValue telemetry;
    std::string error;
    ASSERT_TRUE(obs::parseJson(readFile(base + "/fm.json"), &telemetry,
                               &error))
        << error;
    const obs::JsonValue *fingerprint = telemetry.find("campaign");
    const obs::JsonValue *fleet = telemetry.find("fleet");
    ASSERT_NE(fingerprint, nullptr);
    ASSERT_NE(fleet, nullptr);
    const obs::JsonValue *gauges = fleet->find("gauges");
    ASSERT_NE(gauges, nullptr);
    const obs::JsonValue *planned = gauges->find("fleet.shards.planned");
    ASSERT_NE(planned, nullptr);
    const auto shards = static_cast<std::size_t>(planned->number());
    ASSERT_GT(shards, 0u);

    obs::JsonValue doc;
    ASSERT_TRUE(obs::parseJson(readFile(base + "/t.json"), &doc, &error))
        << error;
    const obs::JsonValue *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);

    // Pass 1: the coordinator's instants name every worker pid.
    std::map<long, int> spawned; // pid -> generation
    std::map<long, int> hellos;  // pid -> count
    std::size_t campaign_spans = 0;
    for (const auto &e : events->items()) {
        const std::string ph = e.find("ph")->string();
        const std::string name = e.find("name")->string();
        if (ph == "M")
            continue;
        ASSERT_NE(e.find("ts"), nullptr) << name;
        EXPECT_GE(e.find("ts")->number(), 0.0) << name;
        int generation = -1;
        long pid = -1;
        if (ph == "i" && std::sscanf(name.c_str(),
                                     "spawn worker g%d (pid %ld)",
                                     &generation, &pid) == 2)
            spawned[pid] = generation;
        if (ph == "i" &&
            std::sscanf(name.c_str(), "hello from pid %ld", &pid) == 1)
            ++hellos[pid];
        if (ph == "X" && name == "campaign " + fingerprint->string())
            ++campaign_spans;
    }
    EXPECT_EQ(campaign_spans, 1u);
    ASSERT_EQ(spawned.size(), 2u);
    for (const auto &[pid, generation] : spawned)
        EXPECT_EQ(hellos[pid], 1) << "pid " << pid;

    // Pass 2: shard and job spans sit on those worker pids.
    std::map<std::size_t, int> shard_spans; // shard id -> count
    std::map<std::string, int> job_spans;   // job name -> count
    for (const auto &e : events->items()) {
        if (e.find("ph")->string() != "X")
            continue;
        const auto pid = static_cast<long>(e.find("pid")->number());
        if (spawned.count(pid) == 0)
            continue;
        const std::string name = e.find("name")->string();
        std::size_t shard = 0;
        char tail = 0;
        if (std::sscanf(name.c_str(), "shard %zu%c", &shard, &tail) == 1) {
            ++shard_spans[shard];
            continue;
        }
        ASSERT_NE(e.find("dur"), nullptr) << name;
        EXPECT_GE(e.find("dur")->number(), 0.0) << name;
        ++job_spans[name];
    }
    EXPECT_EQ(shard_spans.size(), shards);
    for (std::size_t id = 0; id < shards; ++id)
        EXPECT_EQ(shard_spans[id], 1) << "shard " << id;
    // 2 kernels x 2 profiles: four distinct job names, one span each.
    EXPECT_EQ(job_spans.size(), 4u);
    for (const auto &[name, count] : job_spans)
        EXPECT_EQ(count, 1) << name;
    fs::remove_all(base);
}

TEST(FleetCli, HardErrorsDieWithClearMessages)
{
    const std::string base = freshDir("cli");
    const std::string campaign = base + "/campaign.json";
    writeCampaign(campaign);

    // Bogus worker counts die before any fleet state is created.
    for (const char *count : {"0", "banana", "-3"}) {
        std::string out;
        const int code =
            runCommand(std::string(INC_NVPSIM_PATH) + " serve " +
                           campaign + " --workers=" + count,
                       &out);
        EXPECT_NE(code, 0) << count;
        EXPECT_NE(out.find("fatal:"), std::string::npos) << out;
        EXPECT_NE(out.find(std::string("--workers must be an integer in "
                                       "[1, 2147483647], got '") +
                           count + "'"),
                  std::string::npos)
            << out;
    }

    // A non-positive heartbeat timeout would mean "never detect a
    // stalled worker": rejected up front.
    for (const char *timeout : {"0", "-5"}) {
        std::string out;
        const int code = runCommand(
            std::string(INC_NVPSIM_PATH) + " serve " + campaign +
                " --workers 1 --heartbeat-timeout=" + timeout,
            &out);
        EXPECT_NE(code, 0) << timeout;
        EXPECT_NE(out.find(std::string("--heartbeat-timeout must be a "
                                       "number in [0.001, 1000000000], "
                                       "got '") +
                           timeout + "'"),
                  std::string::npos)
            << out;
    }

    // A fleet dir bound to a different campaign is a hard error, not a
    // silent mix of journals.
    const std::string fdir = base + "/fd";
    std::string out;
    ASSERT_EQ(runCommand(std::string(INC_NVPSIM_PATH) + " serve " +
                             campaign + " --workers 1 --fleet-dir " +
                             fdir,
                         &out),
              0)
        << out;
    const std::string other = base + "/other.json";
    {
        std::ofstream f(other, std::ios::binary);
        f << R"({"kernels": "sobel", "profiles": "2",)"
          << R"( "seconds": 0.3, "seed": 78})";
    }
    out.clear();
    const int code = runCommand(std::string(INC_NVPSIM_PATH) +
                                    " serve " + other +
                                    " --workers 1 --fleet-dir " + fdir,
                                &out);
    EXPECT_NE(code, 0);
    EXPECT_NE(out.find("fatal:"), std::string::npos) << out;
    EXPECT_NE(out.find("holds journals for a different campaign"),
              std::string::npos)
        << out;

    // Unusable socket paths: a directory that does not exist, and a
    // worker pointed at a socket nobody serves.
    out.clear();
    EXPECT_NE(runCommand(std::string(INC_NVPSIM_PATH) + " serve " +
                             campaign + " --workers 1 --fleet-dir " +
                             base + "/fd2 --socket " + base +
                             "/no-such-dir/fleet.sock",
                         &out),
              0);
    EXPECT_NE(out.find("cannot listen on"), std::string::npos) << out;

    out.clear();
    EXPECT_NE(runCommand(std::string(INC_NVPSIM_PATH) +
                             " work --socket " + base +
                             "/nobody.sock --campaign " + campaign,
                         &out),
              0);
    EXPECT_NE(out.find("cannot connect to fleet socket"),
              std::string::npos)
        << out;

    // A worker with a missing campaign file dies cleanly too.
    out.clear();
    EXPECT_NE(runCommand(std::string(INC_NVPSIM_PATH) +
                             " work --socket " + base +
                             "/nobody.sock --campaign " + base +
                             "/nope.json",
                         &out),
              0);
    EXPECT_NE(out.find("fatal:"), std::string::npos) << out;

    // Workers keep no state, so they take no directory for it.
    out.clear();
    EXPECT_NE(runCommand(std::string(INC_NVPSIM_PATH) +
                             " work --socket " + base +
                             "/nobody.sock --campaign " + campaign +
                             " --fleet-dir " + base + "/fd3",
                         &out),
              0);
    EXPECT_NE(out.find("nvpsim work: unknown flag '--fleet-dir'"),
              std::string::npos)
        << out;
    EXPECT_FALSE(fs::exists(base + "/fd3"));
    fs::remove_all(base);
}

TEST(FleetCli, BadNumbersAndUnknownNamesDieNamingTheInput)
{
    const std::string base = freshDir("names");
    const std::string nvpsim = std::string(INC_NVPSIM_PATH);
    const auto expectFatal = [](const std::string &cmd,
                                const std::vector<std::string> &needles) {
        std::string out;
        EXPECT_NE(runCommand(cmd, &out), 0) << cmd;
        EXPECT_NE(out.find("fatal:"), std::string::npos) << cmd << out;
        for (const std::string &needle : needles)
            EXPECT_NE(out.find(needle), std::string::npos)
                << cmd << " should mention '" << needle << "': " << out;
    };

    // A numeric flag takes the whole value as one finite number:
    // trailing junk and non-finite values are not silently truncated.
    expectFatal(nvpsim + " run --kernel sobel --seconds 0.1 --seed abc",
                {"--seed", "'abc'"});
    expectFatal(nvpsim + " sweep --kernels sobel --profiles 2"
                         " --jobs 1 --seconds 1x",
                {"--seconds", "'1x'"});
    expectFatal(nvpsim + " run --kernel sobel --seconds inf",
                {"--seconds", "'inf'"});

    // The engine registry is {reference, predecoded}; any other name
    // dies listing both, from the CLI and from a campaign file alike.
    expectFatal(nvpsim + " run --kernel sobel --seconds 0.1"
                         " --engine batch",
                {"unknown --engine 'batch'", "reference,predecoded"});
    const std::string campaign = base + "/batch.json";
    {
        std::ofstream f(campaign, std::ios::binary);
        f << R"({"kernels": "sobel", "profiles": "2",)"
          << R"( "seconds": 0.1, "engine": "batch"})";
    }
    expectFatal(nvpsim + " serve " + campaign + " --workers 1"
                         " --fleet-dir " + base + "/fd",
                {"unknown campaign engine 'batch'",
                 "reference,predecoded"});

    // Unknown fuzz modes die listing exactly the valid modes.
    expectFatal(nvpsim + " fuzz --trials 1 --modes bogus_mode",
                {"unknown trial mode 'bogus_mode'",
                 "(valid: exact_recovery, bounded_error, monotone_bits, "
                 "rac_merge, arena_recovery, strategy_diff, fleet_merge)"});

    // Numbers are checked against the flag's range, never cast or
    // defaulted: each of these once ran as 1, -1, 7, 1 and 1.
    expectFatal(nvpsim + " run --seconds 0.1 --income-scale -1",
                {"--income-scale must be", "got '-1'"});
    expectFatal(nvpsim + " run --seconds 0.1 --income-scale=-1",
                {"--income-scale must be", "got '-1'"});
    expectFatal(nvpsim + " run --seconds 0.1 --seed 7.9",
                {"--seed must be an integer", "got '7.9'"});
    expectFatal(nvpsim + " run --seconds 0.1 --seed -5",
                {"--seed must be an integer", "got '-5'"});
    expectFatal(nvpsim + " fuzz --trials 1 --jobs -1",
                {"--jobs must be an integer", "got '-1'"});
    expectFatal(nvpsim + " sweep --kernels sobel --profiles 2x",
                {"unknown --profiles '2x'"});
    expectFatal(nvpsim + " sweep --kernels sobel --kill-after 1",
                {"nvpsim sweep: --kill-after requires --arena"});
    // With no journal there is nothing to resume: this once re-ran the
    // whole campaign and exited 0.
    expectFatal(nvpsim + " sweep --kernels sobel --profiles 2"
                         " --seconds 0.05 --jobs 1 --resume",
                {"nvpsim sweep: --resume requires --arena"});
    // Only `sweep` journals into an arena: every `run` starts from a
    // fresh memory, so `run --arena` is an unknown flag, not a store.
    expectFatal(nvpsim + " run --kernel sobel --seconds 0.1 --arena " +
                    base + "/nvm",
                {"nvpsim run: unknown flag '--arena'"});
    EXPECT_FALSE(fs::exists(base + "/nvm"));
    // --status-socket takes its path only as `=PATH`.
    expectFatal(nvpsim + " serve " + campaign +
                    " --status-socket s.sock",
                {"nvpsim serve: unexpected argument 's.sock'"});

    // A power trace holds one whole number per row after its header:
    // "nan" is not 0 and "5abc" is not 5.
    const std::string bad_trace = base + "/bad.csv";
    {
        std::ofstream f(bad_trace, std::ios::binary);
        f << "power_uw\n12.5\n5abc\n";
    }
    expectFatal(nvpsim + " run --seconds 0.1 --trace " + bad_trace,
                {bad_trace + " row 3", "'5abc'"});

    // Every subcommand parses strictly. Each case runs in an empty
    // directory with its outputs aimed there, and must die naming the
    // subcommand and the flag and listing the valid flags (one of them
    // given here), before any simulation or file output.
    struct Strict
    {
        std::string cmd;      ///< subcommand plus its operands
        std::string outputs;  ///< output flags aimed at the empty dir
        std::string repeated; ///< a flag given twice
        std::string bare;     ///< a value flag with no value
        std::string listed;   ///< one flag the usage must list
    };
    const std::vector<Strict> strict = {
        {"trace", "--out t.csv", "--seed 1 --seed 2", "--trace",
         "--profile"},
        {"run", "--metrics m.json", "--kernel sobel --kernel median",
         "--trace-out", "--engine"},
        {"sweep", "--out o.csv", "--jobs 1 --jobs 2", "--metrics",
         "--kernels"},
        {"serve " + campaign, "--out o.csv --fleet-dir fd",
         "--workers 1 --workers 2", "--socket",
         "--status-socket[=VALUE]"},
        {"work", "", "--kill-after 1 --kill-after 1", "--socket",
         "--collect-metrics"},
        {"status sock", "", "--json --json", "--watch=1", "--json"},
        {"report", "--out r.json", "--kernel sobel --kernel sobel",
         "--from-metrics", "--flight-capacity"},
        {"fuzz", "--repro-dir rd", "--trials 1 --trials 2", "--modes",
         "--engine-diff"},
        {"asm prog.s", "", "--run --run", "--steps", "--run"},
        {"kernels", "", "", "", "usage: nvpsim kernels"},
    };
    const std::string cwd = base + "/cwd";
    fs::create_directories(cwd);
    for (const Strict &c : strict) {
        const std::string name = c.cmd.substr(0, c.cmd.find(' '));
        const std::string who = "nvpsim " + name + ": ";
        const std::string run =
            "cd " + cwd + " && " + nvpsim + " " + c.cmd + " " + c.outputs;
        for (const char *unknown : {"--help", "--kernle", "--income_scale"})
            expectFatal(run + " " + unknown,
                        {who + "unknown flag '" + unknown + "'",
                         "usage: nvpsim " + name, c.listed});
        expectFatal(run + " extra",
                    {who + "unexpected argument 'extra'", c.listed});
        if (c.repeated.empty())
            continue; // kernels declares no flags
        const std::string flag =
            c.repeated.substr(0, c.repeated.find(' '));
        expectFatal(run + " " + c.repeated,
                    {who + flag + " given twice", c.listed});
        expectFatal(run + " " + c.bare,
                    {who + c.bare.substr(0, c.bare.find('=')), c.listed});
    }
    EXPECT_TRUE(fs::is_empty(cwd)) << "a rejected command wrote output";
    fs::remove_all(base);
}

TEST(FleetCli, SweepArenaKillAndResumeMatchesAnUninterruptedSweep)
{
    // EXPERIMENTS.md's kill-and-resume recipe, end to end through the
    // CLI: a journaled sweep SIGKILLed after 2 of 4 jobs, resumed, must
    // write the uninterrupted sweep's CSV and metrics byte for byte.
    const std::string base = freshDir("arena-resume");
    const std::string sweep =
        "cd " + base + " && " + std::string(INC_NVPSIM_PATH) +
        " sweep --kernels sobel,median --profiles 2,3 --seconds 0.3"
        " --jobs 1";
    std::string log;
    ASSERT_EQ(runCommand(sweep + " --seed 77 --out golden.csv"
                                 " --metrics golden_metrics.json",
                         &log),
              0)
        << log;

    const std::string journaled =
        sweep + " --arena arena --metrics resumed_metrics.json";
    log.clear();
    runCommand("( " + journaled + " --seed 77 --kill-after 2; echo exit=$? )",
               &log);
    EXPECT_NE(log.find("exit=137"), std::string::npos)
        << "expected death by SIGKILL: " << log;
    EXPECT_FALSE(fs::exists(base + "/resumed_metrics.json"));

    log.clear();
    ASSERT_EQ(
        runCommand(journaled + " --seed 77 --resume --out resumed.csv", &log),
        0)
        << log;
    EXPECT_NE(log.find("arena: resuming 2 of 4 jobs done"),
              std::string::npos)
        << log;
    EXPECT_EQ(readFile(base + "/resumed.csv"),
              readFile(base + "/golden.csv"));
    EXPECT_EQ(readFile(base + "/resumed_metrics.json"),
              readFile(base + "/golden_metrics.json"));

    // A bound arena is never reused silently, nor resumed by another
    // campaign.
    log.clear();
    EXPECT_NE(runCommand(journaled + " --seed 77", &log), 0);
    EXPECT_NE(log.find("fatal: arena 'arena' already holds a campaign "
                       "(4 of 4 jobs done); pass --resume"),
              std::string::npos)
        << log;
    log.clear();
    EXPECT_NE(runCommand(journaled + " --resume --seed 78", &log), 0);
    EXPECT_NE(log.find("fatal: arena 'arena' holds a different campaign"),
              std::string::npos)
        << log;

    // A journal in the older format (a version-1 header with a valid
    // CRC) is refused by name and left as it was.
    const std::string header = versionOneLogHeader();
    fs::create_directories(base + "/old");
    std::ofstream(base + "/old/arena.log", std::ios::binary) << header;
    log.clear();
    EXPECT_NE(runCommand(sweep + " --seed 77 --arena old --resume", &log),
              0);
    EXPECT_NE(log.find("cannot open arena"), std::string::npos) << log;
    EXPECT_NE(log.find("format version 1"), std::string::npos) << log;
    EXPECT_EQ(readFile(base + "/old/arena.log"), header);
    fs::remove_all(base);
}

namespace
{

/** Every file under @p dir, by path relative to it, with its bytes. */
std::map<std::string, std::string>
treeBytes(const std::string &dir)
{
    std::map<std::string, std::string> files;
    for (const auto &entry : fs::recursive_directory_iterator(dir)) {
        const std::string rel =
            fs::relative(entry.path(), dir).string();
        files[rel] = entry.is_regular_file()
                         ? readFile(entry.path().string())
                         : std::string("<dir>");
    }
    return files;
}

} // namespace

TEST(FleetCli, RefusedFleetDirsStayUntouched)
{
    // A fleet dir holds one journal, arena.log. Three others are
    // refused before any worker spawns, each left byte for byte as it
    // was, with no socket and no process behind: one bound to another
    // campaign, one in the per-shard layout an older build wrote
    // (refused by the name of what it holds), and one whose journal
    // is format version 1.
    const std::string base = freshDir("refused");
    const std::string campaign = base + "/campaign.json";
    writeCampaign(campaign);
    const std::string serve = "cd " + base + " && " +
                              std::string(INC_NVPSIM_PATH) + " serve ";
    const std::string other = base + "/other.json";
    {
        std::ofstream f(other, std::ios::binary);
        f << R"({"kernels": "sobel", "profiles": "2", "seconds": 0.3,)"
          << R"( "seed": 78})";
    }
    std::string log;
    ASSERT_EQ(runCommand(serve + other + " --workers 1 --fleet-dir foreign",
                         &log),
              0)
        << log;
    const std::string header = versionOneLogHeader();
    fs::create_directories(base + "/marker");
    std::ofstream(base + "/marker/campaign.fp", std::ios::binary)
        << "7465b74f";
    fs::create_directories(base + "/sharded/shard-0");
    std::ofstream(base + "/sharded/shard-0/arena.log", std::ios::binary)
        << header;
    fs::create_directories(base + "/v1");
    std::ofstream(base + "/v1/arena.log", std::ios::binary) << header;

    const std::vector<std::pair<std::string, std::string>> refused = {
        {"foreign", "holds journals for a different campaign"},
        {"marker", "holds 'campaign.fp', which is not part of a fleet "
                   "journal"},
        {"sharded", "holds 'shard-0', which is not part of a fleet "
                    "journal"},
        {"v1", "format version 1"},
    };
    for (const auto &[dir, needle] : refused) {
        SCOPED_TRACE(dir);
        const auto before = treeBytes(base + "/" + dir);
        log.clear();
        EXPECT_EQ(runCommand(serve + campaign +
                                 " --workers 2 --status-socket"
                                 " --fleet-dir " + dir,
                             &log),
                  1)
            << log;
        EXPECT_NE(log.find("fatal: "), std::string::npos) << log;
        EXPECT_NE(log.find(needle), std::string::npos) << log;
        EXPECT_EQ(treeBytes(base + "/" + dir), before);
        EXPECT_FALSE(fs::exists(base + "/" + dir + "/fleet.sock"));
        const std::vector<std::string> left = processesMentioning(base);
        EXPECT_TRUE(left.empty()) << left.front();
    }
    fs::remove_all(base);
}

TEST(FleetCli, TraceOutCreatesItsParentDirectory)
{
    // Every nvpsim output goes through one writer that creates the
    // parent directory; `trace --out` once died here instead.
    const std::string base = freshDir("trace-out");
    const std::string out = base + "/nest/a/t.csv";
    std::string log;
    EXPECT_EQ(runCommand(std::string(INC_NVPSIM_PATH) +
                             " trace --seconds 0.01 --out " + out,
                         &log),
              0)
        << log;
    EXPECT_TRUE(fs::exists(out)) << log;
    fs::remove_all(base);
}


TEST(FleetCli, WarmReservesEndQuietlyWithUnchangedBytes)
{
    // Serving a finished campaign again folds every job from the
    // fleet's journal before any worker spawns, so none does: no
    // shard is dispatched and no result re-sent, and the outputs are
    // the cold run's. The fleet dir holds only its journal after
    // every serve.
    const std::string base = freshDir("warm");
    const std::string campaign = base + "/campaign.json";
    writeCampaign(campaign);
    const std::string cold_dir = base + "/cold";
    fs::create_directories(cold_dir);
    const std::string serve = std::string(INC_NVPSIM_PATH) + " serve " +
                              campaign + " --workers 4 --fleet-dir " +
                              base + "/fd --fleet-metrics fm.json";
    std::string log;
    ASSERT_EQ(runCommand("cd " + cold_dir + " && ( " + serve + kOutputFlags,
                         &log),
              0)
        << log;
    EXPECT_EQ(entriesOf(base + "/fd"), std::vector<std::string>{"arena.log"});
    EXPECT_GT(fleetCounter(cold_dir + "/fm.json", "fleet.workers.spawned"),
              0.0);
    for (int i = 0; i < 3; ++i) {
        SCOPED_TRACE("warm re-serve " + std::to_string(i));
        const std::string dir = base + "/warm" + std::to_string(i);
        fs::create_directories(dir);
        log.clear();
        EXPECT_EQ(runCommand("cd " + dir + " && ( " + serve + kOutputFlags,
                             &log),
                  0)
            << log;
        const std::string err = readFile(dir + "/stderr.txt");
        EXPECT_EQ(err.find("fatal:"), std::string::npos) << err;
        EXPECT_NE(err.find("resuming campaign"), std::string::npos)
            << err;
        expectSameCampaignBytes(cold_dir, dir, "warm re-serve");
        for (const char *name :
             {"fleet.workers.spawned", "fleet.shards.dispatched",
              "fleet.merge.bytes"})
            EXPECT_EQ(fleetCounter(dir + "/fm.json", name), 0.0) << name;
        EXPECT_EQ(entriesOf(base + "/fd"),
                  std::vector<std::string>{"arena.log"});
    }
    fs::remove_all(base);
}

TEST(FleetCli, ServeResumesAJournalSweepArenaWrote)
{
    // `sweep --arena` and `serve` keep one journal format under one
    // fingerprint: a sweep SIGKILLed after 2 of 4 jobs resumes under
    // `serve` to the uninterrupted sweep's bytes.
    const std::string base = freshDir("arena-serve");
    const std::string campaign = base + "/campaign.json";
    writeCampaign(campaign);
    const std::string serial_dir = base + "/serial";
    const std::string dir = base + "/resumed";
    fs::create_directories(serial_dir);
    fs::create_directories(dir);
    std::string log;
    ASSERT_EQ(runCommand("cd " + serial_dir + " && ( " +
                             serialSweepCommand() + kOutputFlags,
                         &log),
              0)
        << log;
    log.clear();
    runCommand("cd " + dir + " && ( " + serialSweepCommand() +
                   " --arena fd --metrics m.json --kill-after 2;"
                   " echo exit=$? )",
               &log);
    ASSERT_NE(log.find("exit=137"), std::string::npos) << log;

    log.clear();
    ASSERT_EQ(runCommand("cd " + dir + " && ( " +
                             std::string(INC_NVPSIM_PATH) + " serve " +
                             campaign + " --workers 2 --fleet-dir fd" +
                             kOutputFlags,
                         &log),
              0)
        << log;
    const std::string err = readFile(dir + "/stderr.txt");
    EXPECT_NE(err.find("resuming campaign"), std::string::npos) << err;
    EXPECT_NE(err.find("(2 of 4 jobs journaled)"), std::string::npos)
        << err;
    expectSameCampaignBytes(serial_dir, dir, "sweep --arena, then serve");
    fs::remove_all(base);
}

TEST(FleetCli, SweepArenaAndServeWriteTheSameJournal)
{
    // One journal path: `sweep --arena` folds each job into the journal
    // through the ResultFolder `serve` keeps its fleet dir with. At one
    // thread and one worker both fold in job-index order, so the logs
    // are the same bytes, with and without per-job metrics.
    const std::string base = freshDir("same-journal");
    const std::string campaign = base + "/campaign.json";
    writeCampaign(campaign);
    for (const std::string metrics : {"", " --metrics m.json"}) {
        SCOPED_TRACE("flags:" + metrics);
        const std::string dir = base + "/run" + std::to_string(metrics.size());
        fs::create_directories(dir);
        std::string log;
        ASSERT_EQ(runCommand("cd " + dir + " && " + serialSweepCommand() +
                                 " --arena a" + metrics,
                             &log),
                  0)
            << log;
        log.clear();
        ASSERT_EQ(runCommand("cd " + dir + " && " +
                                 std::string(INC_NVPSIM_PATH) + " serve " +
                                 campaign + " --workers 1 --fleet-dir b" +
                                 metrics,
                             &log),
                  0)
            << log;
        const std::string journal = readFile(dir + "/a/arena.log");
        EXPECT_GT(journal.size(), 4 * 32u);
        EXPECT_EQ(journal, readFile(dir + "/b/arena.log"));
    }
    fs::remove_all(base);
}

TEST(FleetCli, SweepKillAfterCountsOnlyJournaledJobs)
{
    // A failed job is not journaled, so it does not count towards
    // --kill-after: job 0 fails, jobs 1 and 2 are journaled, and only
    // then does the sweep die.
    const std::string base = freshDir("kill-after-failed");
    const std::string sweep =
        "cd " + base + " && " + std::string(INC_NVPSIM_PATH) +
        " sweep --kernels sobel --profiles 2,3,4 --seconds 0.2 --jobs 1"
        " --arena d";
    std::string log;
    runCommand("( " + sweep + " --kill-after 2 --inject-failure 0;"
                              " echo exit=$? )",
               &log);
    EXPECT_NE(log.find("exit=137"), std::string::npos)
        << "expected death by SIGKILL: " << log;
    log.clear();
    EXPECT_EQ(runCommand(sweep + " --resume", &log), 0) << log;
    EXPECT_NE(log.find("arena: resuming 2 of 3 jobs done"),
              std::string::npos)
        << log;
    fs::remove_all(base);
}

namespace
{

/** @p log with job @p index's record made unparsable yet intact to
 *  replay: its payload's attempt count becomes a letter, and the
 *  record's payload and header CRCs are rewritten to match. */
std::string
corruptJobRecord(std::string log, std::uint64_t index)
{
    constexpr std::size_t kHeader = 32;     // file and record headers
    constexpr std::uint16_t kJobRecord = 2; // the journal's job type
    const std::string key = "attempts=";
    for (std::size_t at = kHeader; at + kHeader <= log.size();) {
        std::uint16_t type = 0;
        std::uint64_t value = 0;
        std::uint32_t payload_len = 0;
        std::memcpy(&type, log.data() + at + 4, sizeof type);
        std::memcpy(&value, log.data() + at + 8, sizeof value);
        std::memcpy(&payload_len, log.data() + at + 16, sizeof payload_len);
        char *payload = log.data() + at + kHeader;
        if (type == kJobRecord && value == index) {
            EXPECT_EQ(std::string(payload, key.size()), key);
            payload[key.size()] = 'x';
            const std::uint32_t payload_crc =
                util::crc32(payload, payload_len);
            std::memcpy(log.data() + at + 20, &payload_crc,
                        sizeof payload_crc);
            const std::uint32_t header_crc = util::crc32(log.data() + at, 28);
            std::memcpy(log.data() + at + 28, &header_crc,
                        sizeof header_crc);
            return log;
        }
        at += kHeader + payload_len;
    }
    ADD_FAILURE() << "the journal holds no record of job " << index;
    return log;
}

} // namespace

TEST(FleetCli, UnreadableJournaledJobIsRefusedByBothCommands)
{
    // A record that replays (both CRCs match) but does not parse is
    // refused by `sweep --arena --resume` and by `serve` alike, by the
    // job it holds, and the journal is left as it was: neither re-runs
    // the job past it.
    const std::string base = freshDir("unreadable");
    const std::string campaign = base + "/campaign.json";
    writeCampaign(campaign);
    std::string log;
    ASSERT_EQ(runCommand("cd " + base + " && " + serialSweepCommand() +
                             " --arena good",
                         &log),
              0)
        << log;
    const std::string corrupt =
        corruptJobRecord(readFile(base + "/good/arena.log"), 2);
    ASSERT_NE(corrupt, readFile(base + "/good/arena.log"));

    const std::vector<std::pair<std::string, std::string>> commands = {
        {"sweep", serialSweepCommand() + " --arena d --resume"},
        {"serve", std::string(INC_NVPSIM_PATH) + " serve " + campaign +
                      " --workers 1 --fleet-dir d"},
    };
    for (const auto &[name, command] : commands) {
        SCOPED_TRACE(name);
        fs::remove_all(base + "/d");
        fs::create_directories(base + "/d");
        std::ofstream(base + "/d/arena.log", std::ios::binary) << corrupt;
        log.clear();
        EXPECT_EQ(runCommand("cd " + base + " && " + command, &log), 1)
            << log;
        EXPECT_NE(log.find("fatal: "), std::string::npos) << log;
        EXPECT_NE(log.find("holds an unreadable record of job 2"),
                  std::string::npos)
            << log;
        EXPECT_EQ(readFile(base + "/d/arena.log"), corrupt);
        EXPECT_EQ(entriesOf(base + "/d"),
                  std::vector<std::string>{"arena.log"});
    }
    fs::remove_all(base);
}
#endif // INC_NVPSIM_PATH
