/**
 * @file
 * CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) used to
 * checksum trace blocks and cache payloads.  Software slicing-by-8:
 * eight table lookups fold 8 bytes per step, with a byte-at-a-time
 * tail.  Every trace replay re-checks each block it reads, so the
 * CRC sits on the decode path.  On one core of a Xeon (GCC 12,
 * RelWithDebInfo) the byte-at-a-time table loop ran at about
 * 0.35 GB/s, over a third of a trace decode; slicing-by-8 runs at
 * about 1.9 GB/s and gives the same checksums.
 */

#ifndef BWSA_STORE_CRC32_HH
#define BWSA_STORE_CRC32_HH

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace bwsa::store
{

/**
 * Incremental CRC-32.  Feed any number of update() calls; value()
 * finalizes without disturbing the running state, so it can be read
 * repeatedly.
 */
class Crc32
{
  public:
    /** Fold @p size bytes at @p data into the running checksum. */
    void update(const void *data, std::size_t size);

    void update(std::string_view bytes)
    {
        update(bytes.data(), bytes.size());
    }

    /** Finalized checksum of everything fed so far. */
    std::uint32_t value() const { return _state ^ 0xffffffffu; }

  private:
    std::uint32_t _state = 0xffffffffu;
};

/** One-shot CRC-32 of a byte range. */
std::uint32_t crc32Of(const void *data, std::size_t size);

/** One-shot CRC-32 of a string view. */
inline std::uint32_t
crc32Of(std::string_view bytes)
{
    return crc32Of(bytes.data(), bytes.size());
}

} // namespace bwsa::store

#endif // BWSA_STORE_CRC32_HH
