/**
 * @file
 * 8-bit grayscale images: container, PGM/PPM I/O and synthetic scenes.
 *
 * The paper's testbenches are image-processing kernels operating on sensor
 * frames. We do not ship the authors' captured images, so SceneGenerator
 * synthesizes deterministic frames with natural-image-like structure
 * (smooth shading, edges, corners and texture) that exercise the same code
 * paths; see DESIGN.md, substitution table.
 */

#ifndef INC_UTIL_IMAGE_H
#define INC_UTIL_IMAGE_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.h"

namespace inc::util
{

/** Row-major 8-bit grayscale image. */
class Image
{
  public:
    Image() = default;

    /** Create a width x height image filled with @p fill. */
    Image(int width, int height, std::uint8_t fill = 0);

    int width() const { return width_; }
    int height() const { return height_; }
    int pixels() const { return width_ * height_; }
    bool empty() const { return data_.empty(); }

    /** Unchecked pixel access. */
    std::uint8_t at(int x, int y) const { return data_[idx(x, y)]; }
    void set(int x, int y, std::uint8_t v) { data_[idx(x, y)] = v; }

    /** Clamped-border access: coordinates outside are clamped to edge. */
    std::uint8_t atClamped(int x, int y) const;

    const std::vector<std::uint8_t> &data() const { return data_; }
    std::vector<std::uint8_t> &data() { return data_; }

    bool operator==(const Image &other) const = default;

  private:
    int idx(int x, int y) const { return y * width_ + x; }

    int width_ = 0;
    int height_ = 0;
    std::vector<std::uint8_t> data_;
};

/** Write @p img as a binary PGM (P5) file. Returns false on I/O error. */
bool writePgm(const Image &img, const std::string &path);

/** Read a binary PGM (P5) file. Returns an empty image on error. */
Image readPgm(const std::string &path);

/** Kinds of synthetic scene available from SceneGenerator. */
enum class SceneKind
{
    gradient,   ///< smooth diagonal shading (tests low-frequency response)
    checker,    ///< high-contrast 8x8 checkerboard (edges everywhere)
    blobs,      ///< soft gaussian blobs (corners/edges on silhouettes)
    texture,    ///< band-limited value noise (median/smoothing stressor)
    scene       ///< composite: shading + blobs + edges + mild noise
};

/**
 * Deterministic synthetic-frame source standing in for the paper's image
 * sensor. Consecutive frames are correlated: the underlying scene drifts
 * slowly, as buffered frames from a real sensor would.
 *
 * A frame is a pure function of (width, height, kind, seed, frame
 * index), and the simulator asks for the same frames many times: at
 * capture, when scoring, in the frame-period calibration and in every
 * job of a sweep. Every job of a campaign gets the campaign seed, so
 * kernels that share a SceneKind ask for the same frames too. frame()
 * therefore serves them from one process-wide memo of at most
 * kFrameMemoBytes pixel bytes (oldest entry evicted first, guarded by
 * a mutex); a hit returns exactly the bytes a miss synthesizes.
 */
class SceneGenerator
{
  public:
    /**
     * Pixel bytes the process-wide frame memo holds at most: enough
     * for every distinct frame a perfbench campaign asks for (2,394
     * 32x32 frames on sweep_compute), so no frame is synthesized twice.
     */
    static constexpr std::size_t kFrameMemoBytes = 4 * 1024 * 1024;

    SceneGenerator(int width, int height, SceneKind kind,
                   std::uint64_t seed = 1);

    /** Frame number @p frame_index (any order; deterministic). */
    Image frame(int frame_index) const;

    int width() const { return width_; }
    int height() const { return height_; }

  private:
    /** Synthesize frame @p frame_index: the memo's miss path. */
    Image synthesize(int frame_index) const;

    int width_;
    int height_;
    SceneKind kind_;
    std::uint64_t seed_;
};

} // namespace inc::util

#endif // INC_UTIL_IMAGE_H
