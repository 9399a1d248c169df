/**
 * @file
 * Small bit-manipulation helpers shared across the datapath models.
 */

#ifndef INC_UTIL_BIT_OPS_H
#define INC_UTIL_BIT_OPS_H

#include <cstdint>

namespace inc::util
{

/** Mask with the low @p n bits set (n in [0, 64]). */
constexpr std::uint64_t
lowMask(unsigned n)
{
    return n >= 64 ? ~0ULL : ((1ULL << n) - 1);
}

/** Mask selecting the top @p keep bits of an @p width-bit value. */
constexpr std::uint64_t
highMask(unsigned keep, unsigned width)
{
    if (keep >= width)
        return lowMask(width);
    return lowMask(width) & ~lowMask(width - keep);
}

/** Truncate @p value to its top @p keep bits within @p width (zero rest). */
constexpr std::uint64_t
truncateLow(std::uint64_t value, unsigned keep, unsigned width)
{
    return value & highMask(keep, width);
}

/** Extract bit @p index (0 = LSB). */
constexpr bool
bit(std::uint64_t value, unsigned index)
{
    return (value >> index) & 1ULL;
}

/** Number of set bits in @p value. */
constexpr int
popcount64(std::uint64_t value)
{
    return __builtin_popcountll(value);
}

/** Sign extend the low @p width bits of @p value. */
constexpr std::int64_t
signExtend(std::uint64_t value, unsigned width)
{
    const std::uint64_t m = 1ULL << (width - 1);
    const std::uint64_t x = value & lowMask(width);
    return static_cast<std::int64_t>((x ^ m) - m);
}

/** Saturate a signed value into [0, 255]. */
constexpr std::uint8_t
clampU8(std::int64_t value)
{
    if (value < 0)
        return 0;
    if (value > 255)
        return 255;
    return static_cast<std::uint8_t>(value);
}

} // namespace inc::util

#endif // INC_UTIL_BIT_OPS_H
