/**
 * @file
 * CRC-32 (IEEE 802.3, polynomial 0xEDB88320) — the checksum guarding
 * the sweep journal's file header and records, and the hash behind its
 * campaign fingerprint (src/runner/journal).
 */

#ifndef INC_UTIL_CRC32_H
#define INC_UTIL_CRC32_H

#include <cstddef>
#include <cstdint>

namespace inc::util
{

/**
 * Incremental CRC-32: feed @p crc the previous return value (or 0 for
 * the first chunk). The final value is already inverted — callers
 * never xor with 0xFFFFFFFF themselves.
 */
std::uint32_t crc32(std::uint32_t crc, const void *data,
                    std::size_t length);

/** One-shot convenience over a single buffer. */
inline std::uint32_t
crc32(const void *data, std::size_t length)
{
    return crc32(0, data, length);
}

} // namespace inc::util

#endif // INC_UTIL_CRC32_H
