/** Unit tests for util: bit ops, stats, tables, CSV, images. */

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/bit_ops.h"
#include "util/csv.h"
#include "util/flags.h"
#include "util/image.h"
#include "util/stats.h"
#include "util/table.h"

namespace u = inc::util;

TEST(BitOps, LowMask)
{
    EXPECT_EQ(u::lowMask(0), 0u);
    EXPECT_EQ(u::lowMask(1), 1u);
    EXPECT_EQ(u::lowMask(8), 0xFFu);
    EXPECT_EQ(u::lowMask(16), 0xFFFFu);
    EXPECT_EQ(u::lowMask(64), ~0ULL);
}

TEST(BitOps, HighMask)
{
    EXPECT_EQ(u::highMask(8, 8), 0xFFu);
    EXPECT_EQ(u::highMask(4, 8), 0xF0u);
    EXPECT_EQ(u::highMask(1, 8), 0x80u);
    EXPECT_EQ(u::highMask(0, 8), 0x00u);
}

TEST(BitOps, TruncateLow)
{
    EXPECT_EQ(u::truncateLow(0xFF, 4, 8), 0xF0u);
    EXPECT_EQ(u::truncateLow(0xAB, 8, 8), 0xABu);
    EXPECT_EQ(u::truncateLow(0xAB, 1, 8), 0x80u);
}

TEST(BitOps, SignExtend)
{
    EXPECT_EQ(u::signExtend(0x80, 8), -128);
    EXPECT_EQ(u::signExtend(0x7F, 8), 127);
    EXPECT_EQ(u::signExtend(0xFFFF, 16), -1);
    EXPECT_EQ(u::signExtend(0x0001, 16), 1);
}

TEST(BitOps, ClampU8)
{
    EXPECT_EQ(u::clampU8(-5), 0);
    EXPECT_EQ(u::clampU8(300), 255);
    EXPECT_EQ(u::clampU8(42), 42);
}

TEST(Histogram, BinsAndClamping)
{
    u::Histogram h(0.0, 10.0, 5);
    h.add(-1.0); // clamps to bin 0
    h.add(0.5);
    h.add(9.9);
    h.add(100.0); // clamps to last bin
    EXPECT_EQ(h.total(), 4u);
    EXPECT_EQ(h.count(0), 2u);
    EXPECT_EQ(h.count(4), 2u);
    EXPECT_DOUBLE_EQ(h.edge(1), 2.0);
}

TEST(Table, RendersAlignedCells)
{
    u::Table t("demo");
    t.setHeader({"a", "long_header"});
    t.addRow({"1", "2"});
    const std::string s = t.render();
    EXPECT_NE(s.find("demo"), std::string::npos);
    EXPECT_NE(s.find("long_header"), std::string::npos);
    EXPECT_NE(s.find("| 1"), std::string::npos);
}

TEST(Table, NumberFormatting)
{
    EXPECT_EQ(u::Table::num(3.14159, 2), "3.14");
    EXPECT_EQ(u::Table::integer(1234567), "1,234,567");
    EXPECT_EQ(u::Table::integer(-42), "-42");
    EXPECT_EQ(u::Table::integer(0), "0");
}

TEST(Csv, RoundTrip)
{
    u::CsvWriter w;
    w.setHeader({"x", "y"});
    w.addRow({"1", "hello, world"});
    w.addRow({"2", "quote\"inside"});
    const auto rows = u::parseCsv(w.render());
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows[0][0], "x");
    EXPECT_EQ(rows[1][1], "hello, world");
    EXPECT_EQ(rows[2][1], "quote\"inside");
}

TEST(ParseNumber, TakesOnlyOneWholeFiniteNumber)
{
    double v = 0;
    EXPECT_TRUE(u::parseNumber("7", &v));
    EXPECT_EQ(v, 7.0);
    EXPECT_TRUE(u::parseNumber("-0.25", &v));
    EXPECT_EQ(v, -0.25);
    EXPECT_TRUE(u::parseNumber("1e-4", &v));
    for (const char *bad : {"", "5abc", "1x", "nan", "inf", "-inf", " 5",
                            "5 ", "abc", "1,2"})
        EXPECT_FALSE(u::parseNumber(bad, &v)) << "'" << bad << "'";
}

TEST(Flags, RangesAndParsedValues)
{
    using u::FlagKind;
    const u::Flag bits{"bits", FlagKind::integer, 1, 8};
    EXPECT_TRUE(u::inRange(bits, 8));
    EXPECT_FALSE(u::inRange(bits, 7.5));
    EXPECT_FALSE(u::inRange(bits, 0));
    EXPECT_FALSE(u::inRange(bits, 1e10));
    EXPECT_EQ(u::rangeText(bits), "an integer in [1, 8]");

    const u::Flags flags(
        "nvpsim test",
        {{"out"}, bits, {"quick", FlagKind::toggle},
         {"socket", FlagKind::optional}, {"scale", FlagKind::number, 0, 2}},
        {"FILE"},
        {"in.s", "--out", "o.csv", "--bits=3", "--quick", "--socket",
         "--scale", "-0"});
    EXPECT_EQ(flags.operand(0), "in.s");
    EXPECT_EQ(flags.text("out"), "o.csv");
    EXPECT_EQ(flags.num("bits", 4), 3.0);
    EXPECT_TRUE(flags.has("quick"));
    EXPECT_TRUE(flags.has("socket"));
    EXPECT_EQ(flags.text("socket", "unset"), "");
    EXPECT_EQ(flags.num("scale", 1.0), 0.0);
    EXPECT_NE(flags.find("out"), nullptr);
    EXPECT_EQ(flags.find("help"), nullptr);
    EXPECT_NE(flags.usage().find("--bits N (an integer in [1, 8])"),
              std::string::npos)
        << flags.usage();
    EXPECT_NE(flags.usage().find("--socket[=VALUE]"), std::string::npos);
    const u::Flags path("nvpsim test", {{"socket", FlagKind::optional}},
                        {}, {"--socket=s.sock"});
    EXPECT_EQ(path.text("socket"), "s.sock");
}

TEST(FlagsDeathTest, NextFlagIsNoValueAndReadsMustBeDeclared)
{
    // What the spawned-binary cases in test_fleet.cc do not reach: a
    // value flag followed by another flag, and reads of undeclared
    // names.
    using u::FlagKind;
    const std::vector<u::Flag> table = {{"out"},
                                        {"quick", FlagKind::toggle}};
    EXPECT_EXIT(u::Flags("nvpsim t", table, {}, {"--out", "--quick"}),
                ::testing::ExitedWithCode(1),
                "nvpsim t: --out needs a value");
    const u::Flags flags("nvpsim t", table, {}, {});
    EXPECT_DEATH(flags.has("kernle"), "does not declare");
    EXPECT_DEATH(flags.num("outt", 0), "does not declare");
}

TEST(Image, BasicsAndClampedAccess)
{
    u::Image img(4, 3, 7);
    EXPECT_EQ(img.width(), 4);
    EXPECT_EQ(img.height(), 3);
    EXPECT_EQ(img.at(0, 0), 7);
    img.set(1, 2, 200);
    EXPECT_EQ(img.at(1, 2), 200);
    EXPECT_EQ(img.atClamped(-5, 2), img.at(0, 2));
    EXPECT_EQ(img.atClamped(100, 100), img.at(3, 2));
}

TEST(Image, PgmRoundTrip)
{
    u::SceneGenerator gen(16, 16, u::SceneKind::scene, 5);
    const u::Image img = gen.frame(0);
    const std::string path = ::testing::TempDir() + "/inc_test.pgm";
    ASSERT_TRUE(u::writePgm(img, path));
    const u::Image back = u::readPgm(path);
    EXPECT_EQ(img, back);
}

TEST(SceneGenerator, DeterministicAndCorrelated)
{
    u::SceneGenerator gen(32, 32, u::SceneKind::scene, 42);
    const u::Image a = gen.frame(3);
    const u::Image b = gen.frame(3);
    EXPECT_EQ(a, b);

    // Consecutive frames correlate far more than distant ones.
    auto diff = [](const u::Image &x, const u::Image &y) {
        double d = 0;
        for (int i = 0; i < x.pixels(); ++i)
            d += std::abs(static_cast<int>(x.data()[i]) -
                          static_cast<int>(y.data()[i]));
        return d / x.pixels();
    };
    const u::Image next = gen.frame(4);
    const u::Image far = gen.frame(60);
    EXPECT_LT(diff(a, next), diff(a, far) + 1e-9);
}

TEST(SceneGenerator, MemoServesTheSameBytesOnMissHitAndAfterEviction)
{
    // Keys no other test asks for, so the first pass misses. Sizes are
    // not square, so a key that swapped width and height would collide.
    struct Key
    {
        int width;
        int height;
        u::SceneKind kind;
        std::uint64_t seed;
    };
    std::vector<Key> keys;
    for (u::SceneKind kind :
         {u::SceneKind::gradient, u::SceneKind::checker,
          u::SceneKind::blobs, u::SceneKind::texture,
          u::SceneKind::scene}) {
        for (const auto &[w, h] : {std::pair{40, 24}, std::pair{24, 40}})
            for (std::uint64_t seed : {901u, 902u})
                keys.push_back({w, h, kind, seed});
    }
    const auto frameOf = [](const Key &k) {
        return u::SceneGenerator(k.width, k.height, k.kind, k.seed)
            .frame(17);
    };
    std::vector<u::Image> miss, hit;
    for (const Key &k : keys)
        miss.push_back(frameOf(k));
    for (const Key &k : keys)
        hit.push_back(frameOf(k));

    // Push more than the memo holds through it: every key above is
    // evicted, oldest first, and synthesized again below.
    const u::SceneGenerator flood(64, 64, u::SceneKind::gradient, 903);
    const std::size_t flood_frames =
        u::SceneGenerator::kFrameMemoBytes / (64 * 64) + 1;
    for (std::size_t i = 0; i < flood_frames; ++i)
        flood.frame(static_cast<int>(i));

    for (std::size_t i = keys.size(); i-- > 0;) {
        const Key &k = keys[i];
        SCOPED_TRACE(std::to_string(k.width) + "x" +
                     std::to_string(k.height) + " kind " +
                     std::to_string(static_cast<int>(k.kind)) +
                     " seed " + std::to_string(k.seed));
        EXPECT_EQ(miss[i].width(), k.width);
        EXPECT_EQ(miss[i].height(), k.height);
        EXPECT_EQ(hit[i], miss[i]);
        EXPECT_EQ(frameOf(k), miss[i]);
    }

    // A frame larger than the whole memo is served without it.
    const u::SceneGenerator big(640, 512, u::SceneKind::gradient, 904);
    EXPECT_EQ(big.frame(0), big.frame(0));
}

TEST(SceneGenerator, AllKindsProduceDistinctContent)
{
    for (u::SceneKind kind :
         {u::SceneKind::gradient, u::SceneKind::checker,
          u::SceneKind::blobs, u::SceneKind::texture,
          u::SceneKind::scene}) {
        u::SceneGenerator gen(16, 16, kind, 7);
        const u::Image img = gen.frame(0);
        double mean = 0;
        for (auto v : img.data())
            mean += v;
        mean /= img.pixels();
        EXPECT_GT(mean, 1.0);
        EXPECT_LT(mean, 254.0);
    }
}
