/**
 * @file
 * The fleet campaign service test tier (src/fleet, DESIGN.md §15).
 *
 * In-process units: shard-planner partition properties, campaign JSON
 * round trip and rejection, wire-protocol encode/decode round trips
 * (including failed jobs, the status plane's STATE frame, and
 * fuzz-grade byte-at-a-time stream fragmentation), and ResultFolder
 * ordering/duplicate semantics.
 *
 * Process level (spawning the real nvpsim binary): the worker-count
 * matrix — one campaign served at --workers 1, 2 and 4 must produce
 * --out/--metrics/--report-out files AND stdout byte-identical to the
 * serial `nvpsim sweep` of the same grid; the crash matrix — with
 * --kill-worker-after every first-generation worker SIGKILLs itself
 * mid-shard, and after reassignment + journal warm-restart the merged
 * bytes must still be identical; the live-telemetry surface — `nvpsim
 * status --watch` against a 4-worker campaign must stream monotone
 * progress ending at jobs_done == jobs_total, still answer (with a
 * "lost" worker row) after --kill-worker-after, and end on a live view
 * equal to the merged --metrics; enabling --status-socket +
 * --trace-out must leave all four campaign artifacts byte-identical,
 * and the fleet trace must carry the names and pids perfbench parses
 * (DESIGN.md §16); warm re-serves of a journaled campaign
 * exit 0 with unchanged bytes and no worker printing "fatal:"; a
 * `sweep --arena` SIGKILLed by --kill-after and resumed writes the
 * uninterrupted sweep's bytes, while a journal in an older format is
 * refused untouched, and under `serve` stops the whole fleet with no
 * socket or worker left behind, as does a shard journal bound to
 * another campaign; and the CLI hard-error surface — a
 * fingerprint-mismatched fleet dir, a bogus worker count, a
 * non-positive --heartbeat-timeout, dead socket paths, and every
 * subcommand's strict flag parsing (unknown, repeated and value-less
 * flags, extra arguments, numbers out of range) all die with a clear
 * fatal message before any work starts.
 *
 * Campaign identity: the journal fingerprint of two campaigns is
 * pinned to the value it has had since before the knob table, and every
 * knob in the table must move it.
 */

#include <gtest/gtest.h>

#include <algorithm>
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
    return runner::SweepJournal::fingerprint(
        spec, runner::expandSweep(spec),
        fleet::campaignFingerprintExtra(campaign, metrics));
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
    const std::string base = freshDir("crash");
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

    // Every first-generation worker SIGKILLs itself after one
    // journaled job; shards are reassigned, replacements warm-restart
    // from the shard journals, and the merged bytes must not move.
    const std::string dir = base + "/killed";
    fs::create_directories(dir);
    std::string fleet_out;
    ASSERT_EQ(runCommand("cd " + dir + " && ( " +
                             std::string(INC_NVPSIM_PATH) + " serve " +
                             campaign +
                             " --workers 2 --kill-worker-after 1"
                             " --fleet-dir fd" +
                             kOutputFlags,
                         &fleet_out),
              0)
        << fleet_out;
    const std::string fleet_err = readFile(dir + "/stderr.txt");
    EXPECT_NE(fleet_err.find("reassigning shard"), std::string::npos)
        << fleet_err;
    expectSameCampaignBytes(serial_dir, dir, "kill matrix");
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
                             "/nobody.sock --campaign " + campaign +
                             " --fleet-dir " + base + "/fd3",
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
                             "/nope.json --fleet-dir " + base + "/fd4",
                         &out),
              0);
    EXPECT_NE(out.find("fatal:"), std::string::npos) << out;
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

TEST(FleetCli, FailedWorkerStopsTheFleetAndLeavesNoSocket)
{
    // A worker that cannot open its shard journal reports ERROR. The
    // coordinator must then stop the other worker, remove its socket
    // and exit non-zero naming the cause; it once exited at once,
    // leaving fleet.sock behind and the other worker to die on it.
    const std::string base = freshDir("worker-error");
    const std::string campaign = base + "/campaign.json";
    writeCampaign(campaign);
    const std::string header = versionOneLogHeader();
    fs::create_directories(base + "/fd/shard-0");
    std::ofstream(base + "/fd/shard-0/arena.log", std::ios::binary)
        << header;
    std::string log;
    EXPECT_NE(runCommand("cd " + base + " && " +
                             std::string(INC_NVPSIM_PATH) + " serve " +
                             campaign + " --workers 2 --fleet-dir fd",
                         &log),
              0)
        << log;
    EXPECT_NE(log.find("fleet: worker"), std::string::npos) << log;
    EXPECT_NE(log.find("format version 1"), std::string::npos) << log;
    EXPECT_EQ(log.find("cannot connect"), std::string::npos) << log;
    EXPECT_EQ(log.find("connection lost"), std::string::npos) << log;
    EXPECT_FALSE(fs::exists(base + "/fd/fleet.sock"));
    const std::vector<std::string> left = processesMentioning(base);
    EXPECT_TRUE(left.empty()) << left.front();
    EXPECT_EQ(readFile(base + "/fd/shard-0/arena.log"), header);
    fs::remove_all(base);
}

TEST(FleetCli, ForeignShardJournalStopsTheFleetCleanly)
{
    // A shard journal bound to another campaign (here: its fleet dir's
    // campaign.fp marker removed, then a different seed served into
    // it) is an ERROR that stops the fleet. It once killed the worker
    // instead, so the coordinator reassigned the shard until its retry
    // budget ran out and left fleet.sock behind.
    const std::string base = freshDir("foreign-shard");
    const auto writeSeed = [&base](int seed) {
        const std::string path =
            base + "/seed" + std::to_string(seed) + ".json";
        std::ofstream f(path, std::ios::binary);
        f << R"({"kernels": "sobel", "profiles": "2", "seconds": 0.3,)"
          << R"( "seed": )" << seed << "}";
        return path;
    };
    const std::string serve = "cd " + base + " && " +
                              std::string(INC_NVPSIM_PATH) + " serve ";
    std::string log;
    ASSERT_EQ(runCommand(serve + writeSeed(1) + " --workers 1 --fleet-dir fd",
                         &log),
              0)
        << log;
    ASSERT_TRUE(fs::remove(base + "/fd/campaign.fp"));

    log.clear();
    EXPECT_EQ(runCommand(serve + writeSeed(2) + " --workers 1 --fleet-dir fd",
                         &log),
              1)
        << log;
    EXPECT_NE(log.find("belongs to a different campaign"),
              std::string::npos)
        << log;
    EXPECT_EQ(log.find("reassigning"), std::string::npos) << log;
    EXPECT_FALSE(fs::exists(base + "/fd/fleet.sock"));
    const std::vector<std::string> left = processesMentioning(base);
    EXPECT_TRUE(left.empty()) << left.front();
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
    // Serving a fully journaled campaign again finishes every shard
    // from the journals, often before the last of four workers has
    // connected. Such a late worker must be stopped quietly, not left
    // to die with "fatal:" on a socket the coordinator removed.
    const std::string base = freshDir("warm");
    const std::string campaign = base + "/campaign.json";
    writeCampaign(campaign);
    const std::string serve = "cd " + base + " && ( " +
                              std::string(INC_NVPSIM_PATH) + " serve " +
                              campaign + " --workers 4 --fleet-dir fd";
    std::string log;
    ASSERT_EQ(runCommand(serve + " --out cold.csv > /dev/null )", &log),
              0)
        << log;
    const std::string cold = readFile(base + "/cold.csv");
    ASSERT_FALSE(cold.empty());
    for (int i = 0; i < 10; ++i) {
        SCOPED_TRACE("warm re-serve " + std::to_string(i));
        log.clear();
        EXPECT_EQ(runCommand(serve + " --out warm.csv > /dev/null"
                                     " 2> stderr.txt )",
                             &log),
                  0)
            << log;
        const std::string err = readFile(base + "/stderr.txt");
        EXPECT_EQ(err.find("fatal:"), std::string::npos) << err;
        EXPECT_NE(err.find("resuming campaign"), std::string::npos)
            << err;
        EXPECT_EQ(readFile(base + "/warm.csv"), cold);
    }
    fs::remove_all(base);
}
#endif // INC_NVPSIM_PATH
