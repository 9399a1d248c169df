/**
 * Versioned data memory: AC truncation, lane-private versions,
 * higher-bits write-through arbitration, assemble merge modes, lane
 * bookkeeping against a per-byte reference model, and outage decay
 * with Fig. 22-style counters and its random-stream contract.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "nvm/retention_policy.h"
#include "nvp/memory.h"
#include "util/bit_ops.h"

using namespace inc::nvp;
using inc::nvm::RetentionPolicy;

namespace
{

DataMemory
makeMem()
{
    DataMemory mem(inc::util::Rng(9), 4096);
    mem.addAcRegion({0, 256, RetentionPolicy::linear});
    mem.addVersionedRegion(1024, 256);
    return mem;
}

} // namespace

TEST(DataMemory, PlainLoadStore)
{
    DataMemory mem(inc::util::Rng(1), 1024);
    mem.store8(0, 100, 0xAB, 8, false);
    EXPECT_EQ(mem.load8(0, 100, 8, false), 0xAB);
    EXPECT_EQ(mem.hostRead8(100), 0xAB);
}

TEST(DataMemory, AcTruncationOnLoadAndStore)
{
    DataMemory mem = makeMem();
    mem.hostWrite8(10, 0xFF);
    // 4-bit memory: low 4 bits truncated inside the AC region.
    EXPECT_EQ(mem.load8(0, 10, 4, true), 0xF0);
    // Full precision or approximation off: exact.
    EXPECT_EQ(mem.load8(0, 10, 8, true), 0xFF);
    EXPECT_EQ(mem.load8(0, 10, 4, false), 0xFF);
    // Outside the AC region: exact regardless.
    mem.hostWrite8(300, 0xFF);
    EXPECT_EQ(mem.load8(0, 300, 4, true), 0xFF);
    // Stores truncate too.
    mem.store8(0, 11, 0xFF, 3, true);
    EXPECT_EQ(mem.hostRead8(11), 0xE0);
}

TEST(DataMemory, VersionedLanePrivacy)
{
    DataMemory mem = makeMem();
    mem.store8(0, 1024, 50, 8, false);
    mem.store8(2, 1024, 60, 4, false);
    // Lane 2 sees its own copy; lane 1 falls back to main.
    EXPECT_EQ(mem.load8(2, 1024, 8, false), 60);
    EXPECT_EQ(mem.load8(1, 1024, 8, false), 50);
    EXPECT_EQ(mem.load8(0, 1024, 8, false), 50);
}

TEST(DataMemory, HigherBitsWriteThroughArbitration)
{
    DataMemory mem = makeMem();
    // Main written at precision 8; a 4-bit lane write must not clobber.
    mem.store8(0, 1030, 200, 8, false);
    mem.store8(1, 1030, 10, 4, false);
    EXPECT_EQ(mem.hostRead8(1030), 200);
    EXPECT_EQ(mem.precisionAt(1030), 8);
    // An unwritten address accepts any precision.
    mem.store8(1, 1031, 77, 3, false);
    EXPECT_EQ(mem.hostRead8(1031), 77);
    EXPECT_EQ(mem.precisionAt(1031), 3);
    // A higher-precision lane write upgrades it.
    mem.store8(2, 1031, 88, 6, false);
    EXPECT_EQ(mem.hostRead8(1031), 88);
    EXPECT_EQ(mem.precisionAt(1031), 6);
}

TEST(DataMemory, ResetVersionedRange)
{
    DataMemory mem = makeMem();
    mem.store8(0, 1040, 123, 8, false);
    mem.store8(1, 1040, 45, 5, false);
    mem.resetVersionedRange(1040, 1);
    EXPECT_EQ(mem.hostRead8(1040), 0);
    EXPECT_EQ(mem.precisionAt(1040), 0);
    EXPECT_EQ(mem.load8(1, 1040, 8, false), 0);
}

TEST(DataMemory, ClearLaneVersions)
{
    DataMemory mem = makeMem();
    mem.store8(0, 1050, 10, 8, false);
    mem.store8(3, 1050, 99, 2, false);
    EXPECT_EQ(mem.load8(3, 1050, 8, false), 99);
    mem.clearLaneVersions(3);
    EXPECT_EQ(mem.load8(3, 1050, 8, false), 10);
}

TEST(DataMemory, AssembleHigherBits)
{
    DataMemory mem = makeMem();
    mem.store8(0, 1060, 10, 3, false);  // main at precision 3
    // Lane 1 writes at precision 2 into its version only (arbitration
    // keeps main), lane 2 at precision 7 (write-through updates main).
    mem.store8(1, 1060, 20, 2, false);
    mem.store8(2, 1060, 30, 7, false);
    EXPECT_EQ(mem.hostRead8(1060), 30);
    // Reset main precision by re-storing low to exercise the FSM merge.
    mem.store8(0, 1061, 5, 2, false);
    mem.store8(1, 1061, 40, 6, false);
    // Undo the write-through to simulate a later main overwrite at low
    // precision, then merge: version 1 should win again.
    mem.store8(0, 1061, 7, 1, false);
    const auto processed = mem.assemble(1061, 1, inc::isa::AssembleMode::
                                                     higherbits);
    EXPECT_EQ(processed, 1u);
    EXPECT_EQ(mem.hostRead8(1061), 40);
    EXPECT_EQ(mem.precisionAt(1061), 6);
}

TEST(DataMemory, AssembleSumMaxMin)
{
    DataMemory mem = makeMem();
    mem.store8(0, 1070, 100, 8, false);
    mem.store8(1, 1070, 200, 1, false); // stays in version 1
    EXPECT_EQ(mem.assemble(1070, 1, inc::isa::AssembleMode::sum), 1u);
    EXPECT_EQ(mem.hostRead8(1070), 255); // saturating sum

    mem.store8(0, 1071, 50, 8, false);
    mem.store8(1, 1071, 20, 1, false);
    mem.assemble(1071, 1, inc::isa::AssembleMode::min);
    EXPECT_EQ(mem.hostRead8(1071), 20);

    mem.store8(0, 1072, 50, 8, false);
    mem.store8(1, 1072, 90, 1, false);
    mem.assemble(1072, 1, inc::isa::AssembleMode::max);
    EXPECT_EQ(mem.hostRead8(1072), 90);
}

TEST(DataMemory, AssembleClearsVersionsAndSkipsOutsideRegions)
{
    DataMemory mem = makeMem();
    mem.store8(1, 1080, 33, 2, false);
    EXPECT_EQ(mem.assemble(1080, 1, inc::isa::AssembleMode::max), 1u);
    // Version cleared: lane 1 now reads main.
    EXPECT_EQ(mem.load8(1, 1080, 8, false), mem.hostRead8(1080));
    // Non-versioned range processes zero bytes.
    EXPECT_EQ(mem.assemble(0, 16, inc::isa::AssembleMode::max), 0u);
}

namespace
{

/**
 * DataMemory's lane accesses and versioned bookkeeping, one byte at a
 * time with no lookup structure: the reference cell model of
 * src/check/diff_harness.cc (RacModel) extended to loads, AC
 * truncation, lane retire and range reset. Every lookup scans the
 * regions in declaration order, so the first declared wins.
 */
struct LaneModel
{
    struct Cell
    {
        std::array<int, DataMemory::kMaxVersions> value{};
        std::array<int, DataMemory::kMaxVersions> prec{};
        std::array<int, DataMemory::kMaxVersions> merged_value{};
        std::uint8_t written = 0;
        std::uint8_t merged = 0;
    };
    struct Versioned
    {
        std::uint32_t start;
        std::uint32_t length;
        bool write_through;
        std::vector<Cell> cells;
    };

    std::vector<int> main;
    std::vector<int> main_prec;
    std::vector<AcRegion> ac;
    std::vector<Versioned> versioned;

    explicit LaneModel(std::uint32_t size) : main(size), main_prec(size) {}

    const AcRegion *acAt(std::uint32_t addr) const
    {
        for (const AcRegion &r : ac) {
            if (addr >= r.start && addr < r.start + r.length)
                return &r;
        }
        return nullptr;
    }

    Cell *cellAt(std::uint32_t addr, Versioned **region = nullptr)
    {
        for (Versioned &r : versioned) {
            if (addr >= r.start && addr < r.start + r.length) {
                if (region)
                    *region = &r;
                return &r.cells[addr - r.start];
            }
        }
        return nullptr;
    }

    int truncate(int value, int bits, bool approx, std::uint32_t addr)
    {
        if (!approx || bits >= 8 || !acAt(addr))
            return value;
        return value & (0xFF << (8 - bits)) & 0xFF;
    }

    int load(int lane, std::uint32_t addr, int bits, bool approx)
    {
        int value = main[addr];
        const Cell *c = lane > 0 ? cellAt(addr) : nullptr;
        if (c && (c->written & (1u << lane)))
            value = c->value[static_cast<std::size_t>(lane)];
        return truncate(value, bits, approx, addr);
    }

    void store(int lane, std::uint32_t addr, int value, int bits,
               bool approx)
    {
        value = truncate(value, bits, approx, addr);
        Versioned *r = nullptr;
        Cell *c = lane > 0 ? cellAt(addr, &r) : nullptr;
        if (!c) {
            main[addr] = value;
            main_prec[addr] = bits;
            return;
        }
        c->value[static_cast<std::size_t>(lane)] = value;
        c->prec[static_cast<std::size_t>(lane)] = bits;
        c->written |= static_cast<std::uint8_t>(1u << lane);
        if (r->write_through && bits >= main_prec[addr]) {
            main[addr] = value;
            main_prec[addr] = bits;
        }
    }

    void reset(std::uint32_t start, std::uint32_t len)
    {
        for (std::uint32_t addr = start; addr < start + len; ++addr) {
            main[addr] = 0;
            main_prec[addr] = 0;
            if (Cell *c = cellAt(addr))
                *c = Cell{};
        }
    }

    void clearLane(int lane)
    {
        for (Versioned &r : versioned)
            for (Cell &c : r.cells)
                c.written &= static_cast<std::uint8_t>(~(1u << lane));
    }

    std::uint32_t assemble(std::uint32_t start, std::uint32_t len,
                           inc::isa::AssembleMode mode)
    {
        std::uint32_t processed = 0;
        for (std::uint32_t addr = start; addr < start + len; ++addr) {
            Cell *c = cellAt(addr);
            if (!c)
                continue;
            ++processed;
            int value = main[addr];
            int prec = main_prec[addr];
            for (int lane = 1; lane < DataMemory::kMaxVersions; ++lane) {
                const auto bit = static_cast<std::uint8_t>(1u << lane);
                const auto l = static_cast<std::size_t>(lane);
                if (!(c->written & bit))
                    continue;
                const int lv = c->value[l];
                const int lp = c->prec[l];
                switch (mode) {
                  case inc::isa::AssembleMode::higherbits:
                    if (lp > prec) {
                        value = lv;
                        prec = lp;
                    }
                    break;
                  case inc::isa::AssembleMode::sum: {
                    const int before =
                        (c->merged & bit) ? c->merged_value[l] : 0;
                    value = std::clamp(value + lv - before, 0, 255);
                    c->merged_value[l] = lv;
                    c->merged |= bit;
                    prec = std::max(prec, lp);
                    break;
                  }
                  case inc::isa::AssembleMode::max:
                    value = std::max(value, lv);
                    prec = std::max(prec, lp);
                    break;
                  case inc::isa::AssembleMode::min:
                    value = std::min(value, lv);
                    prec = std::max(prec, lp);
                    break;
                }
            }
            c->written = 0;
            main[addr] = value;
            main_prec[addr] = prec;
        }
        return processed;
    }
};

} // namespace

/**
 * Random sequences of lane loads and stores, lane retires, assembles in
 * every mode and range resets across region edges, on a write-through
 * and a scratch versioned region (plus a scratch region overlapping the
 * first one's tail) and overlapping AC regions of different policies:
 * every result and, every few operations, every lane's view of every
 * byte must equal the reference model's.
 */
TEST(DataMemory, LaneBookkeepingMatchesTheReferenceModel)
{
    // Small regions packed together, so every byte sees stores, loads,
    // retires, merges and resets from several lanes.
    constexpr std::uint32_t kSize = 512;
    const std::vector<AcRegion> ac = {
        {190, 40, RetentionPolicy::linear},
        {210, 40, RetentionPolicy::parabola},
        {255, 12, RetentionPolicy::log},
        {0, 1, RetentionPolicy::full},
    };
    struct VersionedSpec
    {
        std::uint32_t start;
        std::uint32_t length;
        bool write_through;
    };
    const std::vector<VersionedSpec> versioned = {
        {200, 24, true}, {236, 20, false}, {216, 16, false}};

    for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        inc::util::Rng rng(seed);
        DataMemory mem(inc::util::Rng(seed + 100), kSize);
        LaneModel model(kSize);
        for (const AcRegion &r : ac) {
            mem.addAcRegion(r);
            model.ac.push_back(r);
        }
        for (const VersionedSpec &v : versioned) {
            mem.addVersionedRegion(v.start, v.length, v.write_through);
            model.versioned.push_back(
                {v.start, v.length, v.write_through,
                 std::vector<LaneModel::Cell>(v.length)});
        }
        // Addresses within a few bytes of a region edge half the time,
        // elsewhere near the regions mostly.
        std::vector<std::uint32_t> edges;
        for (const AcRegion &r : ac)
            edges.insert(edges.end(), {r.start, r.start + r.length});
        for (const VersionedSpec &v : versioned)
            edges.insert(edges.end(), {v.start, v.start + v.length});
        const auto pickAddr = [&] {
            const std::uint64_t where = rng.nextBounded(8);
            if (where < 4) {
                const std::uint32_t edge = edges[rng.nextBounded(
                    edges.size())];
                return std::min(kSize - 1,
                                edge + static_cast<std::uint32_t>(
                                           rng.nextBounded(7)) -
                                    std::min<std::uint32_t>(edge, 3));
            }
            if (where < 7)
                return static_cast<std::uint32_t>(184 +
                                                  rng.nextBounded(88));
            return static_cast<std::uint32_t>(rng.nextBounded(kSize));
        };
        // A range from one picked address to another.
        const auto pickRange = [&] {
            const std::uint32_t a = pickAddr();
            const std::uint32_t b = pickAddr();
            const std::uint32_t lo = std::min(a, b);
            return std::pair{lo, std::max(a, b) - lo + 1};
        };
        const auto compareAll = [&](int step) {
            for (std::uint32_t addr = 0; addr < kSize; ++addr) {
                ASSERT_EQ(mem.hostRead8(addr), model.main[addr])
                    << "step " << step << " addr " << addr;
                ASSERT_EQ(mem.precisionAt(addr), model.main_prec[addr])
                    << "step " << step << " addr " << addr;
                for (int lane = 1; lane < DataMemory::kMaxVersions;
                     ++lane) {
                    ASSERT_EQ(mem.load8(lane, addr, 8, false),
                              model.load(lane, addr, 8, false))
                        << "step " << step << " lane " << lane
                        << " addr " << addr;
                }
            }
        };

        for (int step = 0; step < 4000; ++step) {
            const int lane = static_cast<int>(rng.nextBounded(4));
            const int bits = 1 + static_cast<int>(rng.nextBounded(8));
            const bool approx = rng.nextBounded(2) != 0;
            const std::uint64_t op = rng.nextBounded(100);
            if (op < 40) {
                const std::uint32_t addr = pickAddr();
                const auto value =
                    static_cast<std::uint8_t>(rng.nextBounded(256));
                mem.store8(lane, addr, value, bits, approx);
                model.store(lane, addr, value, bits, approx);
            } else if (op < 75) {
                const std::uint32_t addr = pickAddr();
                ASSERT_EQ(mem.load8(lane, addr, bits, approx),
                          model.load(lane, addr, bits, approx))
                    << "step " << step << " lane " << lane << " addr "
                    << addr;
            } else if (op < 83) {
                const std::uint32_t addr = pickAddr();
                const auto *r = model.acAt(addr);
                EXPECT_EQ(mem.isAc(addr), r != nullptr) << addr;
                EXPECT_EQ(mem.policyAt(addr),
                          r ? r->policy : RetentionPolicy::full)
                    << addr;
            } else if (op < 88) {
                const int retired = 1 + static_cast<int>(rng.nextBounded(3));
                mem.clearLaneVersions(retired);
                model.clearLane(retired);
            } else if (op < 94) {
                const auto [start, len] = pickRange();
                const auto mode = static_cast<inc::isa::AssembleMode>(
                    rng.nextBounded(4));
                ASSERT_EQ(mem.assemble(start, len, mode),
                          model.assemble(start, len, mode))
                    << "step " << step;
            } else {
                const auto [start, len] = pickRange();
                mem.resetVersionedRange(start, len);
                model.reset(start, len);
            }
            if (step % 37 == 0)
                compareAll(step);
        }
        compareAll(4000);
    }
}

TEST(DataMemory, OutageDecayCountsAndCorrupts)
{
    DataMemory mem = makeMem();
    for (std::uint32_t a = 0; a < 256; ++a)
        mem.hostWrite8(a, 0xFF);
    // 500 x 0.1 ms outage: linear policy bits 1-2 expire.
    mem.applyOutageDecay(500.0);
    const auto &f = mem.failures();
    EXPECT_EQ(f.violations[0], 1u); // one event per (outage, bit)
    EXPECT_EQ(f.violations[1], 1u);
    EXPECT_EQ(f.violations[2], 0u);
    EXPECT_GT(f.flips[0] + f.flips[1], 50u); // many bytes flipped
    int corrupted = 0;
    for (std::uint32_t a = 0; a < 256; ++a) {
        EXPECT_EQ(mem.hostRead8(a) & 0xFC, 0xFC);
        if (mem.hostRead8(a) != 0xFF)
            ++corrupted;
    }
    EXPECT_GT(corrupted, 100);
    // Short outage: nothing expires.
    DataMemory mem2 = makeMem();
    mem2.applyOutageDecay(0.05);
    EXPECT_EQ(mem2.failures().totalViolations(), 0u);
}

namespace
{

/**
 * The byte-at-a-time outage decay DataMemory::applyOutageDecay ran
 * before it settled eight bytes per step, kept verbatim as the stream
 * reference: one Rng::next() per AC byte, low 8 bits, regions in
 * declaration order; a branch per expired bit counts flips; the word
 * of every changed byte is marked dirty.
 */
struct DecayOracle
{
    std::vector<std::uint8_t> main;
    std::vector<AcRegion> regions;
    inc::util::Rng rng;
    inc::nvm::RetentionFailureCounts failures;
    std::vector<std::uint64_t> dirty; ///< empty = tracking off

    void markDirty(std::uint32_t addr)
    {
        if (dirty.empty())
            return;
        const std::uint32_t w = addr / DataMemory::kDirtyWordBytes;
        dirty[w >> 6] |= std::uint64_t{1} << (w & 63);
    }

    void applyOutageDecay(double duration_tenth_ms)
    {
        for (const AcRegion &region : regions) {
            if (region.policy == RetentionPolicy::full)
                continue;
            const int cutoff =
                inc::nvm::expiredCutoff(region.policy, duration_tenth_ms);
            if (cutoff == 0)
                continue;
            for (int b = 1; b <= cutoff; ++b)
                ++failures.violations[static_cast<size_t>(b - 1)];

            const auto mask =
                static_cast<std::uint8_t>(inc::util::lowMask(
                    static_cast<unsigned>(cutoff)));
            for (std::uint32_t addr = region.start;
                 addr < region.start + region.length; ++addr) {
                const std::uint8_t old = main[addr];
                const auto rnd = static_cast<std::uint8_t>(rng.next());
                const std::uint8_t neu = static_cast<std::uint8_t>(
                    (old & ~mask) | (rnd & mask));
                const std::uint8_t diff = old ^ neu;
                if (diff) {
                    for (int b = 1; b <= cutoff; ++b) {
                        if (inc::util::bit(diff,
                                           static_cast<unsigned>(b - 1)))
                            ++failures.flips[static_cast<size_t>(b - 1)];
                    }
                    markDirty(addr);
                    main[addr] = neu;
                }
            }
        }
    }
};

/** An outage length whose expiredCutoff under @p policy is @p cutoff
 *  (0..8; full-retention regions never decay, so any length). */
double
durationForCutoff(RetentionPolicy policy, int cutoff)
{
    using inc::nvm::retentionTenthMs;
    if (policy == RetentionPolicy::full || cutoff == 0)
        return retentionTenthMs(policy, 1); // not yet expired: strict <
    if (cutoff == 8)
        return 2.0 * retentionTenthMs(policy, 8);
    return 0.5 * (retentionTenthMs(policy, cutoff) +
                  retentionTenthMs(policy, cutoff + 1));
}

} // namespace

TEST(DataMemory, OutageDecayKeepsTheByteLoopStream)
{
    const RetentionPolicy kPolicies[] = {
        RetentionPolicy::full, RetentionPolicy::linear,
        RetentionPolicy::log, RetentionPolicy::parabola};
    std::vector<std::uint32_t> lengths;
    for (std::uint32_t len = 0; len <= 17; ++len)
        lengths.push_back(len);
    lengths.push_back(64);
    lengths.push_back(4093);

    // Every policy x start offset mod 8 x length, packed with gaps,
    // then one region ending at the last byte of memory.
    std::vector<AcRegion> regions;
    std::uint32_t cursor = 0;
    for (const RetentionPolicy policy : kPolicies) {
        for (std::uint32_t offset = 0; offset < 8; ++offset) {
            for (const std::uint32_t len : lengths) {
                const std::uint32_t start = (cursor + 7) / 8 * 8 + offset;
                regions.push_back({start, len, policy});
                cursor = start + len + 3;
            }
        }
    }
    constexpr std::uint32_t kTail = 21;
    const std::uint32_t size = cursor + 5 + kTail;
    regions.push_back({size - kTail, kTail, RetentionPolicy::linear});

    // Every policy's cutoffs 0..8, one pass each in sequence, so a
    // draw-count slip in any pass shifts every later pass's bytes.
    std::vector<double> durations;
    for (const RetentionPolicy policy : kPolicies) {
        for (int cutoff = 0; cutoff <= 8; ++cutoff) {
            const double d = durationForCutoff(policy, cutoff);
            if (policy != RetentionPolicy::full) {
                ASSERT_EQ(inc::nvm::expiredCutoff(policy, d), cutoff);
            }
            durations.push_back(d);
        }
    }

    for (const bool tracking : {false, true}) {
        SCOPED_TRACE(tracking ? "dirty tracking on" : "dirty tracking off");
        DataMemory mem(inc::util::Rng(2017), size);
        DecayOracle oracle{std::vector<std::uint8_t>(size), regions,
                           inc::util::Rng(2017), {}, {}};
        inc::util::Rng fill(99);
        for (std::uint32_t a = 0; a < size; ++a) {
            const auto v = static_cast<std::uint8_t>(fill.next());
            mem.hostWrite8(a, v);
            oracle.main[a] = v;
        }
        for (const AcRegion &r : regions)
            mem.addAcRegion(r);
        if (tracking) {
            mem.enableDirtyTracking();
            oracle.dirty.assign(mem.dirtyBits().size(), 0);
        }

        for (std::size_t pass = 0; pass < durations.size(); ++pass) {
            SCOPED_TRACE(::testing::Message()
                         << "pass " << pass << ", duration "
                         << durations[pass]);
            mem.applyOutageDecay(durations[pass]);
            oracle.applyOutageDecay(durations[pass]);
            ASSERT_EQ(mem.snapshot(0, size), oracle.main);
            for (std::size_t b = 0; b < 8; ++b) {
                ASSERT_EQ(mem.failures().violations[b],
                          oracle.failures.violations[b])
                    << "bit " << b + 1;
                ASSERT_EQ(mem.failures().flips[b],
                          oracle.failures.flips[b])
                    << "bit " << b + 1;
            }
            ASSERT_EQ(mem.dirtyBits(), oracle.dirty);
            mem.clearDirty();
            std::fill(oracle.dirty.begin(), oracle.dirty.end(), 0);
        }
        // The passes reached cutoff 8 and flipped its bit plane.
        EXPECT_GT(oracle.failures.flips[7], 0u);
    }
}

TEST(DataMemory, SnapshotAndCoverage)
{
    DataMemory mem = makeMem();
    mem.store8(0, 1024, 1, 8, false);
    mem.store8(0, 1025, 2, 4, false);
    const auto snap = mem.snapshot(1024, 4);
    EXPECT_EQ(snap[0], 1);
    EXPECT_EQ(snap[1], 2);
    EXPECT_DOUBLE_EQ(mem.coverage(1024, 4), 0.5);
}
