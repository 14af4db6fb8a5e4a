/**
 * @file
 * Shared primitives of the on-disk trace coding: zig-zag signed
 * mapping, LEB128-style varints over in-memory buffers, and fixed
 * little-endian integer fields.  The block container (store/
 * block_trace) and the service's wire frames encode and decode whole
 * blocks through memory buffers, which is what these helpers serve.
 */

#ifndef BWSA_TRACE_VARINT_HH
#define BWSA_TRACE_VARINT_HH

#include <cstdint>
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

/** Append @p v as a fixed little-endian u32. */
inline void
appendU32(std::string &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

/** Append @p v as a fixed little-endian u64. */
inline void
appendU64(std::string &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
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
    bool
    getU32(std::uint32_t &out)
    {
        if (remaining() < 4)
            return false;
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(*_p++) << (8 * i);
        out = v;
        return true;
    }

    /** Read a fixed little-endian u64; false on overrun. */
    bool
    getU64(std::uint64_t &out)
    {
        if (remaining() < 8)
            return false;
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(*_p++) << (8 * i);
        out = v;
        return true;
    }

  private:
    const unsigned char *_p;
    const unsigned char *_end;
};

} // namespace bwsa

#endif // BWSA_TRACE_VARINT_HH
