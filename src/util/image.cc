#include "util/image.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <compare>
#include <cstdio>

#include "util/bit_ops.h"
#include "util/logging.h"
#include "util/memo.h"

namespace inc::util
{

Image::Image(int width, int height, std::uint8_t fill)
    : width_(width), height_(height),
      data_(static_cast<size_t>(width) * height, fill)
{
    if (width <= 0 || height <= 0)
        panic("Image dimensions must be positive (%dx%d)", width, height);
}

std::uint8_t
Image::atClamped(int x, int y) const
{
    x = std::clamp(x, 0, width_ - 1);
    y = std::clamp(y, 0, height_ - 1);
    return data_[idx(x, y)];
}

bool
writePgm(const Image &img, const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return false;
    std::fprintf(f, "P5\n%d %d\n255\n", img.width(), img.height());
    const size_t n = img.data().size();
    const bool ok = std::fwrite(img.data().data(), 1, n, f) == n;
    std::fclose(f);
    return ok;
}

Image
readPgm(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return {};
    char magic[3] = {0, 0, 0};
    int w = 0, h = 0, maxv = 0;
    if (std::fscanf(f, "%2s %d %d %d", magic, &w, &h, &maxv) != 4 ||
        std::string(magic) != "P5" || w <= 0 || h <= 0 || maxv != 255) {
        std::fclose(f);
        return {};
    }
    std::fgetc(f); // single whitespace after header
    Image img(w, h);
    const size_t n = img.data().size();
    const bool ok = std::fread(img.data().data(), 1, n, f) == n;
    std::fclose(f);
    return ok ? img : Image{};
}

namespace
{

/** The hash of value-noise lattice point (ix, iy), in [0, 1). */
double
lattice(std::uint64_t seed, int ix, int iy)
{
    std::uint64_t h = seed;
    h ^= static_cast<std::uint64_t>(ix) * 0x9e3779b97f4a7c15ULL;
    h ^= static_cast<std::uint64_t>(iy) * 0xc2b2ae3d27d4eb4fULL;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/** static_cast<int>(std::floor(v)), without the call when v >= 0. */
int
cellOf(double v)
{
    return v >= 0.0 ? static_cast<int>(v)
                    : static_cast<int>(std::floor(v));
}

double
fade(double t)
{
    return t * t * (3.0 - 2.0 * t);
}

/**
 * Smooth value noise at ((x + drift) / scale, y / scale) for the columns
 * x of one frame, deterministic in the seed: lattice points are hashed
 * and bilinearly interpolated with a smoothstep fade. A column's cell
 * and fade are computed once per frame, and a cell's four corners once
 * per row.
 */
class ValueNoise
{
  public:
    ValueNoise(std::uint64_t seed, double drift, double scale, int width)
        : seed_(seed), scale_(scale),
          cell_(static_cast<std::size_t>(width)),
          fade_(static_cast<std::size_t>(width)),
          row_(static_cast<std::size_t>(width))
    {
        for (std::size_t x = 0; x < cell_.size(); ++x) {
            const double nx = (static_cast<int>(x) + drift) / scale;
            cell_[x] = cellOf(nx);
            fade_[x] = fade(nx - cell_[x]);
        }
    }

    /** The noise at each column of row @p y. */
    const std::vector<double> &row(int y)
    {
        const double ny = y / scale_;
        const int iy = cellOf(ny);
        const double uy = fade(ny - iy);
        int ix = 0;
        double a = 0.0, b = 0.0, c = 0.0, d = 0.0;
        for (std::size_t x = 0; x < cell_.size(); ++x) {
            if (x == 0 || cell_[x] != ix) {
                ix = cell_[x];
                a = lattice(seed_, ix, iy);
                b = lattice(seed_, ix + 1, iy);
                c = lattice(seed_, ix, iy + 1);
                d = lattice(seed_, ix + 1, iy + 1);
            }
            const double ux = fade_[x];
            const double top = a + (b - a) * ux;
            const double bot = c + (d - c) * ux;
            row_[x] = top + (bot - top) * uy;
        }
        return row_;
    }

  private:
    std::uint64_t seed_;
    double scale_;
    std::vector<int> cell_;
    std::vector<double> fade_;
    std::vector<double> row_;
};

std::uint8_t
toPixel(double v)
{
    return clampU8(static_cast<std::int64_t>(std::lround(v * 255.0)));
}

/** Everything a synthesized frame depends on. */
struct FrameKey
{
    int width;
    int height;
    SceneKind kind;
    std::uint64_t seed;
    int frame_index;

    auto operator<=>(const FrameKey &) const = default;
};

using FrameMemo = BoundedMemo<FrameKey, Image>;

FrameMemo &
frameMemo()
{
    // Never destroyed: a sweep thread may still ask for a frame while
    // the process exits.
    static FrameMemo *const memo =
        new FrameMemo(SceneGenerator::kFrameMemoBytes);
    return *memo;
}

} // namespace

SceneGenerator::SceneGenerator(int width, int height, SceneKind kind,
                               std::uint64_t seed)
    : width_(width), height_(height), kind_(kind), seed_(seed)
{
    if (width <= 0 || height <= 0)
        panic("SceneGenerator dimensions must be positive");
}

Image
SceneGenerator::frame(int frame_index) const
{
    const FrameKey key{width_, height_, kind_, seed_, frame_index};
    Image img;
    if (frameMemo().find(key, &img))
        return img;
    img = synthesize(frame_index);
    frameMemo().insert(key, img, img.data().size());
    return img;
}

Image
SceneGenerator::synthesize(int frame_index) const
{
    Image img(width_, height_);
    // Scene drift: content shifts slowly so consecutive frames correlate.
    const double drift = 0.35 * frame_index;
    const double w = width_;
    const double h = height_;
    Rng noise_rng(seed_ ^ (0xABCDULL + static_cast<std::uint64_t>(
                                           frame_index) * 0x9e3779b9ULL));
    // Mild sensor noise on every kind but gradient/checker.
    const bool sensor_noise = kind_ == SceneKind::texture ||
                              kind_ == SceneKind::scene ||
                              kind_ == SceneKind::blobs;

    // What depends on the frame or the column but not the row: each
    // value is the very expression a per-pixel loop would evaluate, so
    // the bytes cannot change.
    std::vector<double> fx(static_cast<std::size_t>(width_));
    for (int x = 0; x < width_; ++x)
        fx[static_cast<std::size_t>(x)] = (x + drift) / w;
    std::array<double, 3> blob_x{}, blob_y{};
    for (int b = 0; b < 3; ++b) {
        blob_x[static_cast<std::size_t>(b)] =
            w * (0.25 + 0.22 * b) + 3.0 * std::sin(drift * 0.2 + b);
        blob_y[static_cast<std::size_t>(b)] =
            h * (0.3 + 0.18 * b) + 2.0 * std::cos(drift * 0.15 + 2 * b);
    }
    const double sigma = 0.018 * w * h / 4.0 + 8.0;
    const double scene_x = w * 0.55 + 4.0 * std::sin(drift * 0.1);
    const double scene_y = h * 0.45;
    const double scene_r2 = 0.03 * w * h;
    const int edge = static_cast<int>(w * 0.75 + drift) % width_;

    // The noise octaves each kind reads.
    std::vector<ValueNoise> octaves;
    if (kind_ == SceneKind::texture) {
        octaves.emplace_back(seed_, drift, 5.0, width_);
        octaves.emplace_back(seed_ + 7, drift, 11.0, width_);
        octaves.emplace_back(seed_ + 13, drift, 23.0, width_);
    } else if (kind_ == SceneKind::scene) {
        octaves.emplace_back(seed_, drift, 6.0, width_);
    }
    std::vector<double> v(static_cast<std::size_t>(width_));

    for (int y = 0; y < height_; ++y) {
        const double fy = (y + 0.5 * drift) / h;
        switch (kind_) {
          case SceneKind::gradient:
            for (int x = 0; x < width_; ++x) {
                const auto i = static_cast<std::size_t>(x);
                v[i] = 0.5 * fx[i] + 0.5 * fy;
            }
            break;
          case SceneKind::checker: {
            const int cy = static_cast<int>(y / 8.0);
            for (int x = 0; x < width_; ++x) {
                const int cx = static_cast<int>((x + drift) / 8.0);
                v[static_cast<std::size_t>(x)] =
                    ((cx + cy) & 1) ? 0.85 : 0.15;
            }
            break;
          }
          case SceneKind::blobs: {
            std::array<double, 3> dy2{};
            for (std::size_t b = 0; b < 3; ++b)
                dy2[b] = (y - blob_y[b]) * (y - blob_y[b]);
            for (int x = 0; x < width_; ++x) {
                double sum = 0.15;
                for (std::size_t b = 0; b < 3; ++b) {
                    const double r2 =
                        (x - blob_x[b]) * (x - blob_x[b]) + dy2[b];
                    sum += 0.6 * std::exp(-r2 / sigma);
                }
                v[static_cast<std::size_t>(x)] = sum;
            }
            break;
          }
          case SceneKind::texture: {
            const std::vector<double> &fine = octaves[0].row(y);
            const std::vector<double> &mid = octaves[1].row(y);
            const std::vector<double> &coarse = octaves[2].row(y);
            for (int x = 0; x < width_; ++x) {
                const auto i = static_cast<std::size_t>(x);
                v[i] = 0.5 * fine[i] + 0.3 * mid[i] + 0.2 * coarse[i];
            }
            break;
          }
          case SceneKind::scene: {
            // Shading + a blob silhouette + a hard vertical edge +
            // faint texture: exercises gradients, corners and noise
            // response together.
            const std::vector<double> &noise = octaves[0].row(y);
            const double dy2 = (y - scene_y) * (y - scene_y);
            for (int x = 0; x < width_; ++x) {
                const auto i = static_cast<std::size_t>(x);
                double sum = 0.25 + 0.3 * fx[i] + 0.15 * fy;
                const double r2 = (x - scene_x) * (x - scene_x) + dy2;
                if (r2 < scene_r2)
                    sum += 0.4;
                if (x > edge)
                    sum -= 0.2;
                sum += 0.08 * (noise[i] - 0.5);
                v[i] = sum;
            }
            break;
          }
        }
        std::uint8_t *const row =
            img.data().data() + static_cast<std::size_t>(y) * width_;
        for (int x = 0; x < width_; ++x) {
            double value = v[static_cast<std::size_t>(x)];
            if (sensor_noise)
                value += 0.01 * noise_rng.nextGaussian();
            row[x] = toPixel(value);
        }
    }
    return img;
}

} // namespace inc::util
