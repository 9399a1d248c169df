/** Multi-version register file: versions, AC flags, compare circuits. */

#include <gtest/gtest.h>

#include "nvp/register_file.h"

using namespace inc::nvp;

TEST(RegisterFile, R0IsHardwiredZero)
{
    RegisterFile rf;
    rf.write(0, 0, 1234);
    EXPECT_EQ(rf.read(0, 0), 0);
}

TEST(RegisterFile, VersionsAreIndependent)
{
    RegisterFile rf;
    rf.write(0, 5, 111);
    rf.write(1, 5, 222);
    rf.write(3, 5, 444);
    EXPECT_EQ(rf.read(0, 5), 111);
    EXPECT_EQ(rf.read(1, 5), 222);
    EXPECT_EQ(rf.read(2, 5), 0);
    EXPECT_EQ(rf.read(3, 5), 444);
}

TEST(RegisterFile, SnapshotAndLoad)
{
    RegisterFile rf;
    for (int v = 0; v < kMaxLanes; ++v)
        for (int r = 1; r < inc::isa::kNumRegs; ++r)
            rf.write(v, r, static_cast<std::uint16_t>(v * 100 + r * 10));
    const RegSnapshot snap = rf.snapshot(0);
    for (int r = 1; r < inc::isa::kNumRegs; ++r)
        EXPECT_EQ(rf.snapshot(3)[static_cast<size_t>(r)], 300 + r * 10);
    rf.clearVersion(0);
    EXPECT_EQ(rf.read(0, 7), 0);
    EXPECT_EQ(rf.read(1, 7), 170); // other versions keep their values
    rf.load(2, snap);
    EXPECT_EQ(rf.read(2, 7), 70);
    EXPECT_EQ(rf.read(3, 7), 370);
    // r0 stays zero even if a snapshot carried junk.
    RegSnapshot bad = snap;
    bad[0] = 99;
    rf.load(1, bad);
    EXPECT_EQ(rf.read(1, 0), 0);
}

TEST(RegisterFile, CopyVersion)
{
    RegisterFile rf;
    rf.write(1, 3, 77);
    rf.write(3, 3, 99);
    rf.copyVersion(1, 2);
    EXPECT_EQ(rf.read(2, 3), 77);
    EXPECT_EQ(rf.read(3, 3), 99);
}

TEST(RegisterFile, AcFlags)
{
    RegisterFile rf;
    rf.setAcMask(0x0006); // r1, r2
    EXPECT_TRUE(rf.isAc(1));
    EXPECT_TRUE(rf.isAc(2));
    EXPECT_FALSE(rf.isAc(3));
    rf.orAcMask(0x0008);
    EXPECT_TRUE(rf.isAc(3));
    rf.clearAcMask(0x0002);
    EXPECT_FALSE(rf.isAc(1));
}

TEST(RegisterFile, CompareCircuits)
{
    RegisterFile rf;
    rf.write(0, 1, 10);
    rf.write(0, 2, 20);
    rf.write(1, 1, 10);
    rf.write(1, 2, 99);
    const std::uint16_t match = rf.compareVersions(0, 1);
    EXPECT_TRUE(match & (1u << 0)); // r0 == r0
    EXPECT_TRUE(match & (1u << 1));
    EXPECT_FALSE(match & (1u << 2));
    // Untouched registers match as zeros.
    EXPECT_TRUE(match & (1u << 9));
}

TEST(RegisterFile, CompareSnapshot)
{
    RegisterFile rf;
    rf.write(0, 4, 44);
    RegSnapshot snap{};
    snap[4] = 44;
    snap[5] = 5;
    const std::uint16_t match = rf.compareSnapshot(0, snap);
    EXPECT_TRUE(match & (1u << 4));
    EXPECT_FALSE(match & (1u << 5));
}

TEST(RegisterFile, LaneWordIsEveryVersionOfOneRegister)
{
    RegisterFile rf;
    for (int v = 0; v < kMaxLanes; ++v)
        rf.write(v, 6, static_cast<std::uint16_t>(100 + v));
    const LaneWord row = rf.lanesFast(6);
    for (int v = 0; v < kMaxLanes; ++v)
        EXPECT_EQ(row[static_cast<size_t>(v)], 100 + v);
    const LaneWord zero = rf.lanesFast(0);
    for (const std::uint16_t value : zero)
        EXPECT_EQ(value, 0);
}

TEST(RegisterFile, WriteLanesTouchesOnlyTheSelectedVersions)
{
    const LaneWord fresh = {0xA0A0, 0xB1B1, 0xC2C2, 0xD3D3};
    for (unsigned lanes = 0; lanes < (1u << kMaxLanes); ++lanes) {
        RegisterFile rf;
        for (int v = 0; v < kMaxLanes; ++v) {
            rf.write(v, 9, static_cast<std::uint16_t>(v + 1));
            rf.write(v, 10, static_cast<std::uint16_t>(v + 50));
        }
        rf.writeLanesFast(9, fresh, lanes);
        rf.writeLanesFast(0, fresh, lanes); // r0 stays zero
        for (int v = 0; v < kMaxLanes; ++v) {
            const bool selected = (lanes >> v) & 1;
            EXPECT_EQ(rf.read(v, 9),
                      selected ? fresh[static_cast<size_t>(v)] : v + 1)
                << "lanes " << lanes << " version " << v;
            EXPECT_EQ(rf.read(v, 10), v + 50);
            EXPECT_EQ(rf.readFast(v, 0), 0);
        }
    }
}
