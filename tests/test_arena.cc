/**
 * @file
 * Persistence-arena unit tests (src/arena, DESIGN.md §12): the
 * allocate/grow/free block index, the log-structured key/value index,
 * epoch commit semantics, and — the core of the crash-consistency
 * contract — a crash-point matrix over the log (crash before, inside,
 * and after the commit record, plus a torn multi-hundred-byte tail),
 * driven by the same byte-granular fault injection the check/ fuzzer
 * uses.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <string>

#include <unistd.h>

#include "arena/arena.h"

using namespace inc;
using arena::Arena;

namespace fs = std::filesystem;

namespace
{

class ArenaTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        dir_ = (fs::temp_directory_path() /
                ("inc-arena-test-" +
                 std::to_string(::getpid()) + "-" +
                 ::testing::UnitTest::GetInstance()
                     ->current_test_info()
                     ->name()))
                   .string();
        fs::remove_all(dir_);
    }

    void TearDown() override { fs::remove_all(dir_); }

    std::string dir_;
};

/** The fixed mutation script the crash matrix replays: one block with
 *  a recognizable fill plus two keys. Returns the block pointer. */
std::uint8_t *
scriptOps(Arena *a)
{
    std::uint8_t *blk = a->alloc("blk", 256);
    std::memset(blk, 0xab, 256);
    a->put("k1", "v1");
    a->put("k2", "value-two");
    return blk;
}

} // namespace

TEST_F(ArenaTest, FreshArenaCommitsAndReopens)
{
    {
        auto a = Arena::open(dir_);
        EXPECT_EQ(a->epoch(), 0u);
        EXPECT_FALSE(a->stats().recovered);
        scriptOps(a.get());
        EXPECT_TRUE(a->commit());
        EXPECT_EQ(a->epoch(), 1u);
    }
    auto a = Arena::open(dir_);
    EXPECT_TRUE(a->stats().recovered);
    EXPECT_EQ(a->epoch(), 1u);
    EXPECT_EQ(a->stats().replayed_commits, 1u);
    std::string v;
    ASSERT_TRUE(a->get("k1", &v));
    EXPECT_EQ(v, "v1");
    ASSERT_TRUE(a->get("k2", &v));
    EXPECT_EQ(v, "value-two");
    ASSERT_TRUE(a->hasBlock("blk"));
    EXPECT_EQ(a->blockSize("blk"), 256u);
    const std::uint8_t *blk = a->blockData("blk");
    for (int i = 0; i < 256; ++i)
        ASSERT_EQ(blk[i], 0xab) << "byte " << i;
}

TEST_F(ArenaTest, UncommittedIndexMutationsRollBackButDataPersists)
{
    {
        auto a = Arena::open(dir_);
        std::uint8_t *blk = scriptOps(a.get());
        ASSERT_TRUE(a->commit());
        // Post-commit, pre-crash: index mutations (a new key, a new
        // block) stage but never commit; a data write into the live
        // committed block hits the mmap directly.
        a->put("staged", "gone");
        a->alloc("staged_blk", 64);
        std::memset(blk, 0x5a, 128);
    } // no commit: simulated crash (destructor persists nothing new)

    auto a = Arena::open(dir_);
    EXPECT_EQ(a->epoch(), 1u);
    std::string v;
    EXPECT_FALSE(a->get("staged", &v));
    EXPECT_FALSE(a->hasBlock("staged_blk"));
    ASSERT_TRUE(a->hasBlock("blk"));
    const std::uint8_t *blk = a->blockData("blk");
    // NVM semantics: the bytes written into the surviving extent
    // persist even though the index mutations around them rolled back.
    for (int i = 0; i < 128; ++i)
        ASSERT_EQ(blk[i], 0x5a) << "byte " << i;
    for (int i = 128; i < 256; ++i)
        ASSERT_EQ(blk[i], 0xab) << "byte " << i;
}

TEST_F(ArenaTest, AllocIsGetOrCreateAndGrowCopies)
{
    auto a = Arena::open(dir_);
    bool existed = true;
    std::uint8_t *p = a->alloc("b", 64, &existed);
    EXPECT_FALSE(existed);
    std::memset(p, 0x11, 64);

    // Same name + size: get-or-create returns the same extent.
    std::uint8_t *q = a->alloc("b", 64, &existed);
    EXPECT_TRUE(existed);
    EXPECT_EQ(p, q);
    EXPECT_EQ(q[0], 0x11);

    // Grow is log-structured: fresh extent, old contents copied into
    // the front, tail zero (arena.dat is sparse).
    std::uint8_t *g = a->grow("b", 128);
    EXPECT_EQ(a->blockSize("b"), 128u);
    for (int i = 0; i < 64; ++i)
        ASSERT_EQ(g[i], 0x11) << "byte " << i;
    for (int i = 64; i < 128; ++i)
        ASSERT_EQ(g[i], 0x00) << "byte " << i;

    // Size mismatch discards and re-creates zero-filled.
    std::uint8_t *r = a->alloc("b", 32, &existed);
    EXPECT_FALSE(existed);
    EXPECT_EQ(r[0], 0x00);

    a->freeBlock("b");
    EXPECT_FALSE(a->hasBlock("b"));
}

TEST_F(ArenaTest, KeysPrefixEnumerationAndErase)
{
    auto a = Arena::open(dir_);
    a->put("job.2", "b");
    a->put("job.1", "a");
    a->put("sweep.fp", "x");
    const auto jobs = a->keys("job.");
    ASSERT_EQ(jobs.size(), 2u);
    EXPECT_EQ(jobs[0], "job.1");
    EXPECT_EQ(jobs[1], "job.2");
    a->erase("job.1");
    EXPECT_EQ(a->keys("job.").size(), 1u);
    std::string v;
    EXPECT_FALSE(a->get("job.1", &v));
}

// ---- crash-point matrix ----------------------------------------------------
//
// The script is dry-run once to measure B0 (log bytes before the
// commit record) and B1 (after it); each matrix point then re-runs it
// in a fresh arena with the log dying at a chosen byte.

class ArenaCrashMatrix : public ArenaTest
{
  protected:
    void measure()
    {
        const std::string dry = dir_ + "-dry";
        fs::remove_all(dry);
        auto a = Arena::open(dry);
        scriptOps(a.get());
        b0_ = a->stats().log_bytes;
        EXPECT_TRUE(a->commit());
        b1_ = a->stats().log_bytes;
        fs::remove_all(dry);
        ASSERT_GT(b0_, 0u);
        ASSERT_GT(b1_, b0_);
    }

    /** Run the script + commit against a fresh arena whose log dies
     *  after @p fail_at bytes, then reopen and return the recovered
     *  arena. @p commit_ok reports what commit() claimed. */
    std::unique_ptr<Arena> crashAt(std::uint64_t fail_at,
                                   bool *commit_ok)
    {
        Arena::Options opt;
        opt.fail_after_log_bytes = fail_at;
        {
            auto a = Arena::open(dir_, opt);
            scriptOps(a.get());
            *commit_ok = a->commit();
        }
        return Arena::open(dir_);
    }

    void expectRolledBack(Arena *a)
    {
        EXPECT_EQ(a->epoch(), 0u);
        EXPECT_EQ(a->stats().replayed_commits, 0u);
        std::string v;
        EXPECT_FALSE(a->get("k1", &v));
        EXPECT_FALSE(a->get("k2", &v));
        EXPECT_FALSE(a->hasBlock("blk"));
    }

    std::uint64_t b0_ = 0;
    std::uint64_t b1_ = 0;
};

TEST_F(ArenaCrashMatrix, CrashBeforeCommitRecordRollsBackEpoch)
{
    measure();
    bool commit_ok = true;
    auto a = crashAt(b0_, &commit_ok);
    EXPECT_FALSE(commit_ok);
    expectRolledBack(a.get());
    // Everything staged before the crash is a discarded tail.
    EXPECT_EQ(a->stats().discarded_tail_bytes, b0_);
}

TEST_F(ArenaCrashMatrix, CrashInsideCommitRecordRollsBackEpoch)
{
    measure();
    // The commit record tears partway through: header or body CRC can
    // never validate, so recovery must treat it as absent.
    const std::uint64_t mid = b0_ + (b1_ - b0_) / 2;
    bool commit_ok = true;
    auto a = crashAt(mid, &commit_ok);
    EXPECT_FALSE(commit_ok);
    expectRolledBack(a.get());
    EXPECT_EQ(a->stats().discarded_tail_bytes, mid);
}

TEST_F(ArenaCrashMatrix, CrashAfterCommitRecordKeepsEpoch)
{
    measure();
    // The whole script including the commit record fits exactly; the
    // crash lands on the first byte after it.
    bool commit_ok = false;
    auto a = crashAt(b1_, &commit_ok);
    EXPECT_TRUE(commit_ok);
    EXPECT_EQ(a->epoch(), 1u);
    EXPECT_EQ(a->stats().replayed_commits, 1u);
    EXPECT_EQ(a->stats().discarded_tail_bytes, 0u);
    std::string v;
    ASSERT_TRUE(a->get("k1", &v));
    EXPECT_EQ(v, "v1");
    ASSERT_TRUE(a->hasBlock("blk"));
    const std::uint8_t *blk = a->blockData("blk");
    for (int i = 0; i < 256; ++i)
        ASSERT_EQ(blk[i], 0xab) << "byte " << i;
}

TEST_F(ArenaCrashMatrix, TornLastPageAfterCommitIsDiscarded)
{
    measure();
    // A sealed epoch followed by a large record that tears mid-payload
    // (the classic torn last page): recovery must keep the sealed
    // epoch, truncate the tail, and the next session must append
    // cleanly from the truncation point.
    const std::string big(4096, 'x');
    const std::uint64_t torn_at = b1_ + 40; // header + part of the key
    Arena::Options opt;
    opt.fail_after_log_bytes = torn_at;
    {
        auto a = Arena::open(dir_, opt);
        scriptOps(a.get());
        ASSERT_TRUE(a->commit());
        a->put("huge", big);
        EXPECT_TRUE(a->failed());
    }
    {
        auto a = Arena::open(dir_);
        EXPECT_EQ(a->epoch(), 1u);
        EXPECT_EQ(a->stats().discarded_tail_bytes, torn_at - b1_);
        std::string v;
        EXPECT_FALSE(a->get("huge", &v));
        ASSERT_TRUE(a->get("k1", &v));
        // The log is whole again: a new epoch seals on top.
        a->put("huge", big);
        EXPECT_TRUE(a->commit());
        EXPECT_EQ(a->epoch(), 2u);
    }
    auto a = Arena::open(dir_);
    EXPECT_EQ(a->epoch(), 2u);
    std::string v;
    ASSERT_TRUE(a->get("huge", &v));
    EXPECT_EQ(v, big);
}
