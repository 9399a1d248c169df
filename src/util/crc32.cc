#include "util/crc32.h"

#include <array>
#include <cstring>

namespace inc::util
{

namespace
{

/**
 * Slicing-by-8 tables: table[0] is the classic bytewise table;
 * table[k][b] is the CRC of byte b followed by k zero bytes. Eight
 * bytes are then folded per step instead of one — same polynomial,
 * bit-identical results, ~8x the throughput.
 */
constexpr std::array<std::array<std::uint32_t, 256>, 8>
makeTables()
{
    std::array<std::array<std::uint32_t, 256>, 8> tables{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        tables[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = tables[0][i];
        for (std::size_t k = 1; k < 8; ++k) {
            c = tables[0][c & 0xFFu] ^ (c >> 8);
            tables[k][i] = c;
        }
    }
    return tables;
}

constexpr std::array<std::array<std::uint32_t, 256>, 8> kTables =
    makeTables();

} // namespace

std::uint32_t
crc32(std::uint32_t crc, const void *data, std::size_t length)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    std::uint32_t c = crc ^ 0xFFFFFFFFu;
    while (length >= 8) {
        std::uint32_t lo;
        std::uint32_t hi;
        std::memcpy(&lo, bytes, sizeof lo);
        std::memcpy(&hi, bytes + 4, sizeof hi);
        c ^= lo;
        c = kTables[7][c & 0xFFu] ^ kTables[6][(c >> 8) & 0xFFu] ^
            kTables[5][(c >> 16) & 0xFFu] ^ kTables[4][c >> 24] ^
            kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
            kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
        bytes += 8;
        length -= 8;
    }
    for (std::size_t i = 0; i < length; ++i)
        c = kTables[0][(c ^ bytes[i]) & 0xFFu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

} // namespace inc::util
