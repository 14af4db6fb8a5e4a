/**
 * @file
 * Shared primitives of the on-disk trace coding: zig-zag signed
 * mapping, LEB128-style varints over in-memory buffers, and fixed
 * little-endian integer fields.  The block container (store/
 * block_trace) and the service's wire frames encode and decode whole
 * blocks through memory buffers, which is what these helpers serve.
 * A fixed-width field is one store: one append (or one memcpy out)
 * of the little-endian value, byte-swapped only on a big-endian host.
 */

#ifndef BWSA_TRACE_VARINT_HH
#define BWSA_TRACE_VARINT_HH

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>

namespace bwsa
{

/** Zig-zag encode a signed delta into an unsigned varint payload. */
inline std::uint64_t
zigzagEncode(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

/** Inverse of zigzagEncode(). */
inline std::int64_t
zigzagDecode(std::uint64_t v)
{
    return static_cast<std::int64_t>(v >> 1) ^
           -static_cast<std::int64_t>(v & 1);
}

/** Append @p v to @p out as a varint (7 bits per byte, LSB first). */
inline void
appendVarint(std::string &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<char>((v & 0x7f) | 0x80));
        v >>= 7;
    }
    out.push_back(static_cast<char>(v));
}

/** @p v in little-endian byte order: the identity on a little-endian host. */
template <typename T>
constexpr T
littleEndian(T v)
{
    if constexpr (std::endian::native == std::endian::little) {
        return v;
    } else {
        T swapped = 0;
        for (std::size_t i = 0; i < sizeof(T); ++i, v >>= 8)
            swapped = static_cast<T>((swapped << 8) | (v & 0xff));
        return swapped;
    }
}

/** Append @p v as a fixed little-endian u32: one 4-byte append. */
inline void
appendU32(std::string &out, std::uint32_t v)
{
    v = littleEndian(v);
    out.append(reinterpret_cast<const char *>(&v), 4);
}

/** Append @p v as a fixed little-endian u64: one 8-byte append. */
inline void
appendU64(std::string &out, std::uint64_t v)
{
    v = littleEndian(v);
    out.append(reinterpret_cast<const char *>(&v), 8);
}

/**
 * Forward cursor over an in-memory byte buffer.  All reads are
 * bounds-checked and return false on overrun instead of fataling, so
 * callers can attach file/offset context to their own diagnostics.
 */
class ByteCursor
{
  public:
    ByteCursor(const char *data, std::size_t size)
        : _p(reinterpret_cast<const unsigned char *>(data)),
          _end(_p + size)
    {}

    explicit ByteCursor(const std::string &buffer)
        : ByteCursor(buffer.data(), buffer.size())
    {}

    /** Bytes not yet consumed. */
    std::size_t remaining() const
    {
        return static_cast<std::size_t>(_end - _p);
    }

    /** True when the cursor has consumed the whole buffer. */
    bool atEnd() const { return _p == _end; }

    /** Read one varint; false on overrun or >64-bit encoding. */
    bool
    getVarint(std::uint64_t &out)
    {
        std::uint64_t v = 0;
        unsigned shift = 0;
        while (_p != _end) {
            unsigned char c = *_p++;
            v |= static_cast<std::uint64_t>(c & 0x7f) << shift;
            if ((c & 0x80) == 0) {
                out = v;
                return true;
            }
            shift += 7;
            if (shift >= 64)
                return false;
        }
        return false;
    }

    /** Read a fixed little-endian u32; false on overrun. */
    bool getU32(std::uint32_t &out) { return getFixed(out); }

    /** Read a fixed little-endian u64; false on overrun. */
    bool getU64(std::uint64_t &out) { return getFixed(out); }

  private:
    /** One load of a little-endian field; false (not advancing) on overrun. */
    template <typename T>
    bool
    getFixed(T &out)
    {
        if (remaining() < sizeof(T))
            return false;
        T v = 0;
        std::memcpy(&v, _p, sizeof(T));
        _p += sizeof(T);
        out = littleEndian(v);
        return true;
    }

    const unsigned char *_p;
    const unsigned char *_end;
};

} // namespace bwsa

#endif // BWSA_TRACE_VARINT_HH
