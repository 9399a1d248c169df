/**
 * @file
 * Sweep-journal unit tests (src/runner/journal, DESIGN.md §12): the
 * bind and job records survive a reopen, refused results append
 * nothing, an older format or a corrupt file header is a hard error,
 * and — the core of the crash-consistency contract — a crash-point
 * matrix over the log (crash inside and right after the bind record,
 * inside and right after a job record, plus a torn ~10 KB record on top
 * of durable ones), driven by the same byte-granular fault injection
 * the check/ fuzzer uses.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <iterator>
#include <memory>
#include <string>

#include <unistd.h>

#include "obs/schema.h"
#include "runner/journal.h"
#include "sim/result_io.h"
#include "util/crc32.h"
#include "util/fs.h"

using namespace inc;
using runner::SweepJournal;

namespace fs = std::filesystem;

namespace
{

constexpr char kFingerprint[] = "0badf00d";
constexpr std::size_t kJobs = 4;

/** A successful result for job @p index, its fields derived from it. */
runner::JobResult
jobResult(std::size_t index)
{
    runner::JobResult jr;
    jr.spec.index = index;
    jr.ok = true;
    jr.attempts = 1 + static_cast<int>(index % 2);
    jr.result.forward_progress = 1000 + index;
    jr.result.mean_psnr = 30.0 + 0.125 * static_cast<double>(index);
    jr.metrics.counter(obs::kSimSamples).inc(index + 1);
    return jr;
}

/** Everything of @p jr the journal keeps, as one string. */
std::string
resultBytes(const runner::JobResult &jr)
{
    return "attempts=" + std::to_string(jr.attempts) + "\n" +
           sim::serializeResult(jr.result) + jr.metrics.toJson();
}

/** resultBytes() of journaled job @p index; "" when it does not load. */
std::string
loadedBytes(const SweepJournal &journal, std::size_t index)
{
    runner::JobResult jr;
    return journal.load(index, &jr) ? resultBytes(jr) : "";
}

class JournalTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        dir_ = (fs::temp_directory_path() /
                ("inc-journal-test-" +
                 std::to_string(::getpid()) + "-" +
                 ::testing::UnitTest::GetInstance()
                     ->current_test_info()
                     ->name()))
                   .string();
        fs::remove_all(dir_);
    }

    void TearDown() override { fs::remove_all(dir_); }

    std::string logPath() const { return dir_ + "/arena.log"; }

    std::string dir_;
};

} // namespace

TEST_F(JournalTest, BindAndRecordsSurviveAReopen)
{
    {
        auto j = SweepJournal::open(dir_);
        EXPECT_FALSE(j->stats().recovered);
        EXPECT_FALSE(j->bound());
        EXPECT_TRUE(j->bind(kFingerprint, kJobs));
        EXPECT_TRUE(j->record(jobResult(2)));
        EXPECT_TRUE(j->record(jobResult(0)));
        EXPECT_EQ(j->stats().appended_records, 3u);
    }
    auto j = SweepJournal::open(dir_);
    const runner::JournalStats st = j->stats();
    EXPECT_TRUE(st.recovered);
    EXPECT_EQ(st.replayed_records, 3u);
    EXPECT_EQ(st.discarded_tail_bytes, 0u);
    ASSERT_TRUE(j->bound());
    EXPECT_EQ(j->boundFingerprint(), kFingerprint);
    EXPECT_EQ(j->jobsTotal(), kJobs);
    EXPECT_EQ(j->completedCount(), 2u);
    EXPECT_TRUE(j->completed(0));
    EXPECT_FALSE(j->completed(1));
    EXPECT_TRUE(j->completed(2));
    EXPECT_EQ(loadedBytes(*j, 0), resultBytes(jobResult(0)));
    EXPECT_EQ(loadedBytes(*j, 2), resultBytes(jobResult(2)));

    // A bound journal stays bound to its campaign.
    EXPECT_FALSE(j->bind("ffffffff", 9));
    EXPECT_EQ(j->boundFingerprint(), kFingerprint);
    // The log is the directory's only file.
    EXPECT_EQ(std::distance(fs::directory_iterator(dir_),
                            fs::directory_iterator()),
              1);
}

TEST_F(JournalTest, FailedDuplicateAndOutOfRangeResultsAreNotAppended)
{
    auto j = SweepJournal::open(dir_);
    EXPECT_FALSE(j->record(jobResult(0))) << "recorded before a bind";
    EXPECT_FALSE(j->bind(kFingerprint, 0)) << "bound an empty campaign";
    ASSERT_TRUE(j->bind(kFingerprint, kJobs));
    runner::JobResult failed = jobResult(1);
    failed.ok = false;
    EXPECT_FALSE(j->record(failed));
    EXPECT_FALSE(j->record(jobResult(kJobs)));
    EXPECT_TRUE(j->record(jobResult(3)));
    runner::JobResult again = jobResult(3);
    again.attempts = 2;
    EXPECT_FALSE(j->record(again));
    EXPECT_EQ(j->stats().appended_records, 2u);
    const std::uintmax_t size = fs::file_size(logPath());
    j.reset();

    auto r = SweepJournal::open(dir_);
    EXPECT_EQ(r->stats().replayed_records, 2u);
    EXPECT_EQ(r->completedCount(), 1u);
    EXPECT_FALSE(r->completed(1));
    EXPECT_EQ(loadedBytes(*r, 3), resultBytes(jobResult(3)));
    EXPECT_EQ(fs::file_size(logPath()), size);
}

TEST_F(JournalTest, OldFormatAndCorruptHeadersThrow)
{
    // Version 1's header: magic "RINALOG1", the version, zeros, and a
    // CRC32 over the first 28 bytes.
    std::string header(32, '\0');
    const std::uint64_t magic = 0x31474f4c414e4952ULL;
    const std::uint32_t version = 1;
    std::memcpy(header.data(), &magic, sizeof magic);
    std::memcpy(header.data() + 8, &version, sizeof version);
    const std::uint32_t crc = util::crc32(header.data(), 28);
    std::memcpy(header.data() + 28, &crc, sizeof crc);

    const auto expectRefused = [this](const std::string &bytes,
                                      const std::string &reason) {
        ASSERT_TRUE(util::writeFile(logPath(), bytes));
        try {
            SweepJournal::open(dir_);
            ADD_FAILURE() << "opened a log that should be refused: "
                          << reason;
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find(reason),
                      std::string::npos)
                << e.what();
        }
        std::string kept;
        ASSERT_TRUE(util::readFile(logPath(), &kept));
        EXPECT_EQ(kept, bytes) << "refused log changed";
    };
    expectRefused(header, "format version 1; this build reads 2");
    header[0] ^= 1;
    expectRefused(header, "corrupt header");
}

// ---- crash-point matrix ----------------------------------------------------
//
// A dry run measures the log bytes of the bind record (B) and of bind
// plus one job record (B + J); each matrix point then binds and records
// that job in a fresh journal whose log dies at a chosen byte.

class JournalCrashMatrix : public JournalTest
{
  protected:
    void measure()
    {
        const std::string dry = dir_ + "-dry";
        fs::remove_all(dry);
        {
            auto j = SweepJournal::open(dry);
            ASSERT_TRUE(j->bind(kFingerprint, kJobs));
            bind_bytes_ = j->stats().appended_bytes;
            ASSERT_TRUE(j->record(jobResult(0)));
            job_bytes_ = j->stats().appended_bytes;
        }
        fs::remove_all(dry);
        ASSERT_GT(bind_bytes_, 0u);
        ASSERT_GT(job_bytes_, bind_bytes_);
    }

    /** Bind and record job 0 in a fresh journal whose log dies after
     *  @p fail_at bytes, then reopen it. @p bind_ok and @p record_ok
     *  report what the calls claimed. */
    std::unique_ptr<SweepJournal> crashAt(std::uint64_t fail_at,
                                          bool *bind_ok, bool *record_ok)
    {
        SweepJournal::Options opt;
        opt.fail_after_log_bytes = fail_at;
        {
            auto j = SweepJournal::open(dir_, opt);
            *bind_ok = j->bind(kFingerprint, kJobs);
            *record_ok = j->record(jobResult(0));
        }
        return SweepJournal::open(dir_);
    }

    std::uint64_t bind_bytes_ = 0;
    std::uint64_t job_bytes_ = 0;
};

TEST_F(JournalCrashMatrix, CrashInsideTheBindRecordLeavesItUnbound)
{
    measure();
    bool bind_ok = true;
    bool record_ok = true;
    const std::uint64_t mid = bind_bytes_ / 2;
    auto j = crashAt(mid, &bind_ok, &record_ok);
    EXPECT_FALSE(bind_ok);
    EXPECT_FALSE(record_ok);
    EXPECT_FALSE(j->bound());
    EXPECT_EQ(j->completedCount(), 0u);
    EXPECT_EQ(j->stats().replayed_records, 0u);
    EXPECT_EQ(j->stats().discarded_tail_bytes, mid);
    // The torn bind is gone: the campaign binds afresh.
    EXPECT_TRUE(j->bind(kFingerprint, kJobs));
}

TEST_F(JournalCrashMatrix, CrashRightAfterTheBindIsBoundWithNoJobs)
{
    measure();
    bool bind_ok = false;
    bool record_ok = true;
    auto j = crashAt(bind_bytes_, &bind_ok, &record_ok);
    EXPECT_TRUE(bind_ok);
    EXPECT_FALSE(record_ok);
    ASSERT_TRUE(j->bound());
    EXPECT_EQ(j->boundFingerprint(), kFingerprint);
    EXPECT_EQ(j->jobsTotal(), kJobs);
    EXPECT_EQ(j->completedCount(), 0u);
    EXPECT_EQ(j->stats().replayed_records, 1u);
    EXPECT_EQ(j->stats().discarded_tail_bytes, 0u);
}

TEST_F(JournalCrashMatrix, CrashInsideAJobRecordDropsTheJob)
{
    measure();
    // The job record tears partway through: its header or payload CRC
    // can never validate, so recovery must treat it as absent.
    bool bind_ok = false;
    bool record_ok = true;
    const std::uint64_t mid = bind_bytes_ + (job_bytes_ - bind_bytes_) / 2;
    auto j = crashAt(mid, &bind_ok, &record_ok);
    EXPECT_TRUE(bind_ok);
    EXPECT_FALSE(record_ok);
    ASSERT_TRUE(j->bound());
    EXPECT_FALSE(j->completed(0));
    EXPECT_EQ(j->stats().replayed_records, 1u);
    EXPECT_EQ(j->stats().discarded_tail_bytes, mid - bind_bytes_);
}

TEST_F(JournalCrashMatrix, CrashRightAfterAJobRecordKeepsItsBytes)
{
    measure();
    bool bind_ok = false;
    bool record_ok = false;
    auto j = crashAt(job_bytes_, &bind_ok, &record_ok);
    EXPECT_TRUE(bind_ok);
    EXPECT_TRUE(record_ok);
    ASSERT_TRUE(j->completed(0));
    EXPECT_EQ(loadedBytes(*j, 0), resultBytes(jobResult(0)));
    EXPECT_EQ(j->stats().replayed_records, 2u);
    EXPECT_EQ(j->stats().discarded_tail_bytes, 0u);
}

TEST_F(JournalCrashMatrix, TornTailOnDurableRecordsIsDiscarded)
{
    measure();
    // A ~10 KB record tears mid-payload on top of the durable bind and
    // job 0: recovery must keep both, cut the file back to them, and
    // the next session must append cleanly from there.
    runner::JobResult big = jobResult(1);
    for (int i = 0; i < 480; ++i)
        big.metrics.counter("test.pad." + std::to_string(i)).inc(i);
    ASSERT_GT(resultBytes(big).size(), 9000u);
    const std::uint64_t torn_at = job_bytes_ + 5000;

    SweepJournal::Options opt;
    opt.fail_after_log_bytes = torn_at;
    std::uintmax_t durable = 0;
    {
        auto j = SweepJournal::open(dir_, opt);
        ASSERT_TRUE(j->bind(kFingerprint, kJobs));
        ASSERT_TRUE(j->record(jobResult(0)));
        durable = fs::file_size(logPath());
        EXPECT_FALSE(j->record(big));
        EXPECT_TRUE(j->failed());
    }
    EXPECT_EQ(fs::file_size(logPath()), durable + 5000);
    {
        auto j = SweepJournal::open(dir_);
        EXPECT_EQ(j->stats().discarded_tail_bytes, 5000u);
        EXPECT_EQ(fs::file_size(logPath()), durable);
        EXPECT_TRUE(j->completed(0));
        EXPECT_FALSE(j->completed(1));
        // The log is whole again: the record lands on top.
        EXPECT_TRUE(j->record(big));
    }
    auto j = SweepJournal::open(dir_);
    EXPECT_EQ(j->stats().discarded_tail_bytes, 0u);
    EXPECT_EQ(j->completedCount(), 2u);
    EXPECT_EQ(loadedBytes(*j, 1), resultBytes(big));
}
