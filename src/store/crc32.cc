#include "store/crc32.hh"

#include <array>

namespace bwsa::store
{

namespace
{

/**
 * Slicing-by-8 tables of the reflected IEEE polynomial: table[0] is
 * the classic byte table, and table[k][b] is the CRC of byte b
 * followed by k zero bytes, so one step folds 8 input bytes with 8
 * independent lookups.
 */
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

const CrcTables &
crcTables()
{
    static const CrcTables tables = [] {
        CrcTables t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int bit = 0; bit < 8; ++bit)
                c = (c & 1) ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
            t[0][i] = c;
        }
        for (std::size_t k = 1; k < t.size(); ++k)
            for (std::uint32_t i = 0; i < 256; ++i)
                t[k][i] = (t[k - 1][i] >> 8) ^
                          t[0][t[k - 1][i] & 0xffu];
        return t;
    }();
    return tables;
}

/** Little-endian u32 at @p p (any alignment, any host order). */
inline std::uint32_t
loadLe32(const unsigned char *p)
{
    return static_cast<std::uint32_t>(p[0]) |
           static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 |
           static_cast<std::uint32_t>(p[3]) << 24;
}

} // namespace

void
Crc32::update(const void *data, std::size_t size)
{
    const CrcTables &t = crcTables();
    const unsigned char *p = static_cast<const unsigned char *>(data);
    std::uint32_t state = _state;
    for (; size >= 8; size -= 8, p += 8) {
        const std::uint32_t lo = loadLe32(p) ^ state;
        const std::uint32_t hi = loadLe32(p + 4);
        state = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
                t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^
                t[3][hi & 0xffu] ^ t[2][(hi >> 8) & 0xffu] ^
                t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
    }
    for (; size != 0; --size, ++p)
        state = t[0][(state ^ *p) & 0xffu] ^ (state >> 8);
    _state = state;
}

std::uint32_t
crc32Of(const void *data, std::size_t size)
{
    Crc32 crc;
    crc.update(data, size);
    return crc.value();
}

} // namespace bwsa::store
