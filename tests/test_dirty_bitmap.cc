/**
 * @file
 * Property tests for DataMemory's dirty-word tracking (the Freezer
 * backup strategy's write-intercept bitmap, src/sim/strategy).
 *
 * The soundness contract the freezer depends on: between two
 * clearDirty() calls, every main-version byte that CHANGED lies in a
 * word whose dirty bit is set — the bitmap may over-report (a bit
 * covers its whole 4-byte word and is set even for writes that store
 * the value already present) but may NEVER under-report. The property
 * is driven by random op sequences over every write path (lane stores,
 * write-through arbitration, assemble merges, versioned resets, outage
 * decay, host/DMA writes) against two shadows: a byte-level pre-image
 * (soundness: changed byte => dirty word) and the set of words the ops
 * actually addressed (boundedness: dirty words ⊆ addressed words).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "isa/isa.h"
#include "nvm/retention_policy.h"
#include "nvp/memory.h"
#include "util/rng.h"

using namespace inc;
using nvp::DataMemory;

namespace
{

constexpr std::uint32_t kWord = DataMemory::kDirtyWordBytes;

bool
dirtyAt(const DataMemory &mem, std::uint32_t word)
{
    const std::vector<std::uint64_t> &bits = mem.dirtyBits();
    return (bits[word >> 6] >> (word & 63)) & 1;
}

/** Soundness: every byte differing from @p before has its word dirty. */
void
expectNoUnderReport(const DataMemory &mem,
                    const std::vector<std::uint8_t> &before)
{
    const std::vector<std::uint8_t> after = mem.snapshot(
        0, static_cast<std::uint32_t>(mem.size()));
    ASSERT_EQ(after.size(), before.size());
    for (std::uint32_t addr = 0; addr < after.size(); ++addr) {
        if (after[addr] != before[addr]) {
            ASSERT_TRUE(dirtyAt(mem, addr / kWord))
                << "byte " << addr << " changed ("
                << static_cast<int>(before[addr]) << " -> "
                << static_cast<int>(after[addr])
                << ") but word " << addr / kWord << " is clean";
        }
    }
}

/** Boundedness: every dirty word was addressed by some write op. */
void
expectBounded(const DataMemory &mem,
              const std::set<std::uint32_t> &addressed)
{
    const std::uint32_t words =
        static_cast<std::uint32_t>((mem.size() + kWord - 1) / kWord);
    for (std::uint32_t w = 0; w < words; ++w) {
        if (dirtyAt(mem, w)) {
            EXPECT_TRUE(addressed.count(w))
                << "word " << w
                << " dirty but no op addressed it (unbounded "
                   "over-report)";
        }
    }
}

void
address(std::set<std::uint32_t> *shadow, std::uint32_t addr,
        std::uint32_t len)
{
    for (std::uint32_t w = addr / kWord; w <= (addr + len - 1) / kWord;
         ++w)
        shadow->insert(w);
}

} // namespace

TEST(DirtyBitmap, DisabledByDefaultAndEmpty)
{
    DataMemory mem(util::Rng(1), 256);
    EXPECT_FALSE(mem.dirtyTrackingEnabled());
    EXPECT_TRUE(mem.dirtyBits().empty());
    EXPECT_EQ(mem.dirtyWordCount(), 0u);
    mem.hostWrite8(10, 0x5a); // writes are fine with tracking off
    EXPECT_EQ(mem.dirtyWordCount(), 0u);
}

TEST(DirtyBitmap, SingleWordMemory)
{
    // N = 1 word: the smallest trackable memory.
    DataMemory mem(util::Rng(1), kWord);
    mem.enableDirtyTracking();
    EXPECT_EQ(mem.dirtyWordCount(), 0u);
    mem.hostWrite8(2, 0x7f);
    EXPECT_EQ(mem.dirtyWordCount(), 1u);
    EXPECT_TRUE(dirtyAt(mem, 0));
    mem.clearDirty();
    EXPECT_EQ(mem.dirtyWordCount(), 0u);
    // A same-value rewrite still marks (allowed over-report).
    mem.hostWrite8(2, 0x7f);
    EXPECT_EQ(mem.dirtyWordCount(), 1u);
}

TEST(DirtyBitmap, UnalignedSpansMarkEveryStraddledWord)
{
    DataMemory mem(util::Rng(1), 256);
    mem.enableDirtyTracking();
    // [5, 14): straddles words 1, 2 and 3 — nothing else.
    mem.hostWriteBlock(5, std::vector<std::uint8_t>(9, 0xaa));
    EXPECT_EQ(mem.dirtyWordCount(), 3u);
    EXPECT_FALSE(dirtyAt(mem, 0));
    EXPECT_TRUE(dirtyAt(mem, 1));
    EXPECT_TRUE(dirtyAt(mem, 2));
    EXPECT_TRUE(dirtyAt(mem, 3));
    EXPECT_FALSE(dirtyAt(mem, 4));
}

TEST(DirtyBitmap, FullMemoryWriteMarksEveryWord)
{
    constexpr std::size_t kSize = 4096;
    DataMemory mem(util::Rng(1), kSize);
    mem.enableDirtyTracking();
    mem.hostWriteBlock(0, std::vector<std::uint8_t>(kSize, 0x11));
    EXPECT_EQ(mem.dirtyWordCount(), kSize / kWord);
}

TEST(DirtyBitmap, RandomOpSequencesNeverUnderReport)
{
    constexpr std::size_t kSize = 4096;
    constexpr int kIntervals = 8;
    constexpr int kOpsPerInterval = 300;

    DataMemory mem(util::Rng(9), kSize);
    // Every write path live at once: an AC region with a decaying
    // policy, a write-through output region, a lane-private region.
    mem.addAcRegion({512, 512, nvm::RetentionPolicy::log});
    mem.addVersionedRegion(1024, 512, /*write_through=*/true);
    mem.addVersionedRegion(2048, 512, /*write_through=*/false);
    mem.enableDirtyTracking();

    util::Rng rng(0xd1277bULL);
    for (int interval = 0; interval < kIntervals; ++interval) {
        mem.clearDirty();
        const std::vector<std::uint8_t> before =
            mem.snapshot(0, kSize);
        std::set<std::uint32_t> addressed;

        for (int op = 0; op < kOpsPerInterval; ++op) {
            const std::uint64_t pick = rng.nextBounded(100);
            const auto addr = static_cast<std::uint32_t>(
                rng.nextBounded(kSize));
            const auto value =
                static_cast<std::uint8_t>(rng.next());
            const int lane = static_cast<int>(rng.nextBounded(4));
            const int bits = 2 + static_cast<int>(rng.nextBounded(7));

            if (pick < 35) { // lane store (all arbitration paths)
                mem.store8(lane, addr, value, bits,
                           /*approx_mem=*/pick % 2 == 0);
                address(&addressed, addr, 1);
            } else if (pick < 50) { // host/DMA byte
                mem.hostWrite8(addr, value);
                address(&addressed, addr, 1);
            } else if (pick < 65) { // host/DMA span (often unaligned)
                const auto len = static_cast<std::uint32_t>(
                    1 + rng.nextBounded(33));
                if (addr + len <= kSize) {
                    mem.hostWriteBlock(
                        addr, std::vector<std::uint8_t>(len, value));
                    address(&addressed, addr, len);
                }
            } else if (pick < 75) { // assemble merge into main
                const std::uint32_t start =
                    1024 + addr % 480;
                const auto len = static_cast<std::uint32_t>(
                    1 + rng.nextBounded(32));
                mem.assemble(start, len,
                             static_cast<isa::AssembleMode>(
                                 rng.nextBounded(4)));
                address(&addressed, start, len);
            } else if (pick < 85) { // versioned slot reset
                const std::uint32_t start = 1024 + addr % 448;
                mem.resetVersionedRange(start, 64);
                address(&addressed, start, 64);
            } else if (pick < 95) { // load: must NOT mark
                mem.load8(lane, addr, bits, true);
            } else { // outage decay over the AC region
                mem.applyOutageDecay(50.0);
                address(&addressed, 512, 512);
            }
        }

        SCOPED_TRACE("interval " + std::to_string(interval));
        expectNoUnderReport(mem, before);
        expectBounded(mem, addressed);
    }
}

TEST(DirtyBitmap, ClearStartsAFreshIntervalExactly)
{
    DataMemory mem(util::Rng(3), 1024);
    mem.enableDirtyTracking();
    mem.hostWrite8(100, 1);
    mem.hostWrite8(900, 2);
    EXPECT_EQ(mem.dirtyWordCount(), 2u);
    mem.clearDirty();
    // Prior interval's writes are forgotten; only new ones mark.
    mem.hostWrite8(900, 3);
    EXPECT_EQ(mem.dirtyWordCount(), 1u);
    EXPECT_FALSE(dirtyAt(mem, 100 / kWord));
    EXPECT_TRUE(dirtyAt(mem, 900 / kWord));
}
