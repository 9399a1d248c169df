/** Unit tests for util: bit ops, stats, tables, CSV, images. */

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/bit_ops.h"
#include "util/csv.h"
#include "util/flags.h"
#include "util/image.h"
#include "util/rng.h"
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
    const u::SceneGenerator big(
        1024,
        static_cast<int>(u::SceneGenerator::kFrameMemoBytes / 1024 + 1),
        u::SceneKind::gradient, 904);
    EXPECT_EQ(big.frame(0), big.frame(0));
}

namespace
{

// ---- the per-pixel synthesis loop, kept verbatim as an oracle ---------

double
oracleValueNoise(std::uint64_t seed, double x, double y)
{
    auto lattice = [seed](int ix, int iy) {
        std::uint64_t h = seed;
        h ^= static_cast<std::uint64_t>(ix) * 0x9e3779b97f4a7c15ULL;
        h ^= static_cast<std::uint64_t>(iy) * 0xc2b2ae3d27d4eb4fULL;
        h ^= h >> 33;
        h *= 0xff51afd7ed558ccdULL;
        h ^= h >> 33;
        return static_cast<double>(h >> 11) * 0x1.0p-53;
    };
    const int ix = static_cast<int>(std::floor(x));
    const int iy = static_cast<int>(std::floor(y));
    const double fx = x - ix;
    const double fy = y - iy;
    auto fade = [](double t) { return t * t * (3.0 - 2.0 * t); };
    const double ux = fade(fx);
    const double uy = fade(fy);
    const double a = lattice(ix, iy);
    const double b = lattice(ix + 1, iy);
    const double c = lattice(ix, iy + 1);
    const double d = lattice(ix + 1, iy + 1);
    const double top = a + (b - a) * ux;
    const double bot = c + (d - c) * ux;
    return top + (bot - top) * uy;
}

std::uint8_t
oracleToPixel(double v)
{
    return u::clampU8(static_cast<std::int64_t>(std::lround(v * 255.0)));
}

u::Image
oracleFrame(int width_, int height_, u::SceneKind kind_,
            std::uint64_t seed_, int frame_index)
{
    using u::Rng;
    using u::SceneKind;
    u::Image img(width_, height_);
    // Scene drift: content shifts slowly so consecutive frames correlate.
    const double drift = 0.35 * frame_index;
    const double w = width_;
    const double h = height_;
    Rng noise_rng(seed_ ^ (0xABCDULL + static_cast<std::uint64_t>(
                                           frame_index) * 0x9e3779b9ULL));

    for (int y = 0; y < height_; ++y) {
        for (int x = 0; x < width_; ++x) {
            double v = 0.0;
            const double fx = (x + drift) / w;
            const double fy = (y + 0.5 * drift) / h;
            switch (kind_) {
              case SceneKind::gradient:
                v = 0.5 * fx + 0.5 * fy;
                break;
              case SceneKind::checker: {
                const int cx = static_cast<int>((x + drift) / 8.0);
                const int cy = static_cast<int>(y / 8.0);
                v = ((cx + cy) & 1) ? 0.85 : 0.15;
                break;
              }
              case SceneKind::blobs: {
                v = 0.15;
                for (int b = 0; b < 3; ++b) {
                    const double bx =
                        w * (0.25 + 0.22 * b) + 3.0 * std::sin(
                            drift * 0.2 + b);
                    const double by =
                        h * (0.3 + 0.18 * b) + 2.0 * std::cos(
                            drift * 0.15 + 2 * b);
                    const double r2 = (x - bx) * (x - bx) +
                                      (y - by) * (y - by);
                    const double sigma = 0.018 * w * h / 4.0 + 8.0;
                    v += 0.6 * std::exp(-r2 / sigma);
                }
                break;
              }
              case SceneKind::texture:
                v = 0.5 * oracleValueNoise(seed_, (x + drift) / 5.0,
                                           y / 5.0) +
                    0.3 * oracleValueNoise(seed_ + 7, (x + drift) / 11.0,
                                           y / 11.0) +
                    0.2 * oracleValueNoise(seed_ + 13, (x + drift) / 23.0,
                                           y / 23.0);
                break;
              case SceneKind::scene: {
                // Shading + a blob silhouette + a hard vertical edge +
                // faint texture: exercises gradients, corners and noise
                // response together.
                v = 0.25 + 0.3 * fx + 0.15 * fy;
                const double bx = w * 0.55 + 4.0 * std::sin(drift * 0.1);
                const double by = h * 0.45;
                const double r2 = (x - bx) * (x - bx) + (y - by) * (y - by);
                if (r2 < 0.03 * w * h)
                    v += 0.4;
                if (x > static_cast<int>(w * 0.75 + drift) % width_)
                    v -= 0.2;
                v += 0.08 * (oracleValueNoise(seed_, (x + drift) / 6.0,
                                              y / 6.0) - 0.5);
                break;
              }
            }
            // Mild sensor noise on every kind but gradient/checker.
            if (kind_ == SceneKind::texture || kind_ == SceneKind::scene ||
                kind_ == SceneKind::blobs) {
                v += 0.01 * noise_rng.nextGaussian();
            }
            img.set(x, y, oracleToPixel(v));
        }
    }
    return img;
}

class SceneSynthesis : public ::testing::TestWithParam<u::SceneKind>
{
};

std::string
sceneKindName(const ::testing::TestParamInfo<u::SceneKind> &info)
{
    static const char *const names[] = {"gradient", "checker", "blobs",
                                        "texture", "scene"};
    return names[static_cast<int>(info.param)];
}

} // namespace

/**
 * SceneGenerator::frame returns, byte for byte, what the per-pixel loop
 * above computes: every size class, several seeds, negative frame
 * indices (whose noise coordinates fall below 0, so cells come from
 * std::floor) and a far one. Small frames run every index in
 * [-50, 400]; larger ones a stride of it.
 */
TEST_P(SceneSynthesis, FramesEqualThePerPixelLoop)
{
    const u::SceneKind kind = GetParam();
    struct Case
    {
        int width;
        int height;
        int stride; ///< over frame indices [-50, 400]
        std::vector<std::uint64_t> seeds;
    };
    const std::vector<Case> cases = {
        {1, 1, 1, {1, 2017, 52361}},
        {3, 3, 1, {1, 2017, 52361}},
        {8, 8, 1, {1, 2017, 52361}},
        {17, 17, 1, {1, 2017}},
        {17, 8, 3, {52361}},
        {32, 32, 7, {1, 2017, 52361}},
        {64, 64, 31, {2017, 0xfeedfaceULL}},
        {640, 512, 450, {2017}},
    };
    for (const Case &c : cases) {
        std::vector<int> frames;
        for (int f = -50; f <= 400; f += c.stride)
            frames.push_back(f);
        frames.push_back(100000);
        for (const std::uint64_t seed : c.seeds) {
            const u::SceneGenerator gen(c.width, c.height, kind, seed);
            for (const int f : frames) {
                SCOPED_TRACE(std::to_string(c.width) + "x" +
                             std::to_string(c.height) + " seed " +
                             std::to_string(seed) + " frame " +
                             std::to_string(f));
                ASSERT_EQ(gen.frame(f),
                          oracleFrame(c.width, c.height, kind, seed, f));
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, SceneSynthesis,
    ::testing::Values(u::SceneKind::gradient, u::SceneKind::checker,
                      u::SceneKind::blobs, u::SceneKind::texture,
                      u::SceneKind::scene),
    sceneKindName);

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
