/** Resume buffer FIFO and recompute queue. */

#include <gtest/gtest.h>

#include "core/recompute.h"
#include "core/resume_buffer.h"
#include "util/rng.h"

using namespace inc::core;

namespace
{

ResumeEntry
entry(std::uint16_t pc, std::uint16_t frame)
{
    ResumeEntry e;
    e.valid = true;
    e.pc = pc;
    e.frame = frame;
    return e;
}

} // namespace

TEST(ResumeBuffer, PushAndCount)
{
    ResumeBuffer buf;
    EXPECT_TRUE(buf.empty());
    buf.push(entry(10, 1));
    buf.push(entry(20, 2));
    EXPECT_EQ(buf.count(), 2);
    EXPECT_FALSE(buf.empty());
}

TEST(ResumeBuffer, EvictsOldestWhenFull)
{
    ResumeBuffer buf;
    for (std::uint16_t i = 0; i < 5; ++i)
        buf.push(entry(static_cast<std::uint16_t>(100 + i), i));
    EXPECT_EQ(buf.count(), 4);
    // Frame 0 (the oldest) was evicted.
    bool has_frame0 = false;
    for (int i = 0; i < ResumeBuffer::capacity(); ++i) {
        if (buf.at(i).valid && buf.at(i).frame == 0)
            has_frame0 = true;
    }
    EXPECT_FALSE(has_frame0);
}

TEST(ResumeBuffer, NewestIndexTracksLastPush)
{
    ResumeBuffer buf;
    EXPECT_EQ(buf.newestIndex(), -1);
    buf.push(entry(1, 1));
    buf.push(entry(2, 2));
    EXPECT_EQ(buf.at(buf.newestIndex()).frame, 2);
    buf.push(entry(3, 3));
    buf.push(entry(4, 4));
    buf.push(entry(5, 5)); // wraps, evicting frame 1
    EXPECT_EQ(buf.at(buf.newestIndex()).frame, 5);
}

TEST(ResumeBuffer, InvalidateAndReuseSlots)
{
    ResumeBuffer buf;
    buf.push(entry(1, 1));
    buf.push(entry(2, 2));
    buf.invalidate(0);
    EXPECT_EQ(buf.count(), 1);
    buf.push(entry(3, 3)); // fills the freed slot
    EXPECT_EQ(buf.count(), 2);
}

TEST(ResumeBuffer, DropStale)
{
    ResumeBuffer buf;
    buf.push(entry(1, 1));
    buf.push(entry(2, 5));
    buf.push(entry(3, 9));
    EXPECT_EQ(buf.dropStale(5), 1);
    EXPECT_EQ(buf.count(), 2);
    buf.clear();
    EXPECT_TRUE(buf.empty());
}

TEST(ResumeBuffer, KeptCountMatchesTheValidSlots)
{
    // count() is kept, not scanned: after every mutator, a second
    // invalidate of one slot included, it must equal a scan.
    ResumeBuffer buf;
    const auto scanned = [&buf] {
        int n = 0;
        for (int i = 0; i < ResumeBuffer::capacity(); ++i)
            n += buf.at(i).valid ? 1 : 0;
        return n;
    };
    inc::util::Rng rng(5);
    std::uint16_t frame = 0;
    for (int step = 0; step < 2000; ++step) {
        const std::uint64_t pick = rng.nextBounded(20);
        if (pick < 10) {
            ++frame;
            buf.push(entry(static_cast<std::uint16_t>(step), frame));
        } else if (pick < 16) {
            buf.invalidate(static_cast<int>(rng.nextBounded(4)));
        } else if (pick < 19) {
            buf.dropStale(frame - static_cast<std::uint32_t>(
                                      rng.nextBounded(6)));
        } else {
            buf.clear();
        }
        ASSERT_EQ(buf.count(), scanned()) << "step " << step;
        ASSERT_EQ(buf.empty(), scanned() == 0) << "step " << step;
    }
}

TEST(RecomputeQueue, PassAccounting)
{
    RecomputeQueue q;
    EXPECT_TRUE(q.empty());
    q.request(7, 4, 2);
    EXPECT_EQ(q.size(), 1u);
    const auto p1 = q.takePass();
    EXPECT_EQ(p1.frame, 7);
    EXPECT_EQ(p1.min_bits, 4);
    EXPECT_FALSE(q.empty());
    q.takePass();
    EXPECT_TRUE(q.empty());
}

TEST(RecomputeQueue, DuplicateRequestsMerge)
{
    RecomputeQueue q;
    q.request(3, 2, 1);
    q.request(3, 6, 3);
    EXPECT_EQ(q.size(), 1u);
    EXPECT_EQ(q.front().min_bits, 6);
    EXPECT_EQ(q.front().passes_left, 3);
}

TEST(RecomputeQueue, ZeroPassesIgnoredAndStaleDropped)
{
    RecomputeQueue q;
    q.request(1, 4, 0);
    EXPECT_TRUE(q.empty());
    q.request(1, 4, 1);
    q.request(9, 4, 1);
    EXPECT_EQ(q.dropStale(5), 1);
    EXPECT_EQ(q.size(), 1u);
    EXPECT_EQ(q.front().frame, 9);
}
