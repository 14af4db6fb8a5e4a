/**
 * @file
 * Shared wire-format vocabulary of the persistence and service
 * layers.
 *
 * The v2 block container (store/block_trace.hh) and the profiling
 * service protocol (serve/protocol.hh) speak the same block coding:
 * fixed-size runs of branch records, each encoded as
 * varint(zigzag(pc delta)) varint(ts delta << 1 | taken) with the
 * delta base reset to (pc 0, timestamp 0) at the block start, so any
 * block decodes with no context from its predecessors.  This header
 * is the single home of the magics, the structural sizes, and the
 * block payload codec, so the container and the daemon can never
 * drift apart -- a client streaming blocks to `bwsa_serve` produces
 * byte-for-byte the payloads a BlockTraceWriter would put on disk.
 *
 * Versioning: `block_trace_version` stamps both the container header
 * and the service Hello handshake; `serve_protocol_version` stamps
 * every service frame.  A daemon rejects clients whose versions
 * disagree with a clear error instead of misdecoding their bytes.
 */

#ifndef BWSA_STORE_WIRE_HH
#define BWSA_STORE_WIRE_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "trace/trace.hh"
#include "trace/varint.hh"

namespace bwsa::store
{

/** v2 container header magic ("BWST"). */
constexpr std::array<char, 4> trace_magic = {'B', 'W', 'S', 'T'};

/** v2 container trailer magic ("BWSE"). */
constexpr std::array<char, 4> end_magic = {'B', 'W', 'S', 'E'};

/** Service frame magic ("BWSF"); see serve/protocol.hh. */
constexpr std::array<char, 4> frame_magic = {'B', 'W', 'S', 'F'};

/** On-disk format version written by BlockTraceWriter. */
constexpr std::uint32_t block_trace_version = 2;

/** Version of the length-prefixed service framing. */
constexpr std::uint32_t serve_protocol_version = 1;

/** Container header size: magic + u32 version. */
constexpr std::uint64_t header_bytes = 8;

/** One container footer entry (see block_trace.hh layout). */
constexpr std::uint64_t entry_bytes = 56;

/** Container trailer size. */
constexpr std::uint64_t trailer_bytes = 36;

/** Footer entry describing one block (in-memory form). */
struct TraceBlockInfo
{
    std::uint64_t offset = 0;          ///< payload file offset
    std::uint64_t payload_bytes = 0;   ///< encoded payload size
    std::uint64_t first_record = 0;    ///< stream position of record 0
    std::uint64_t record_count = 0;    ///< records in the block
    std::uint64_t first_timestamp = 0; ///< retired-instruction range lo
    std::uint64_t last_timestamp = 0;  ///< retired-instruction range hi
    std::uint32_t crc = 0;             ///< CRC-32 of the payload
};

/** 64-bit FNV-1a over a byte buffer, continuing from @p state. */
inline std::uint64_t
fnv1a64(std::uint64_t state, const void *data, std::size_t size)
{
    const unsigned char *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < size; ++i) {
        state ^= p[i];
        state *= 1099511628211ull;
    }
    return state;
}

/** FNV-1a offset basis (the conventional 64-bit seed). */
constexpr std::uint64_t fnv1a64_basis = 14695981039346656037ull;

/**
 * Encoder of one block payload.  append() records grow the payload;
 * reset() starts the next block (delta bases return to (0, 0)).
 * Callers own ordering validation -- the encoder encodes whatever it
 * is fed (timestamp deltas are unsigned, so descending timestamps
 * must be rejected upstream).
 */
class BlockPayloadEncoder
{
  public:
    /** Encode @p record at the end of the open block. */
    void
    append(const BranchRecord &record)
    {
        if (_count == 0)
            _first_timestamp = record.timestamp;
        std::int64_t pc_delta = static_cast<std::int64_t>(record.pc) -
                                static_cast<std::int64_t>(_last_pc);
        std::uint64_t ts_delta = record.timestamp - _last_timestamp;
        appendVarint(_payload, zigzagEncode(pc_delta));
        appendVarint(_payload,
                     (ts_delta << 1) | (record.taken ? 1u : 0u));
        _last_pc = record.pc;
        _last_timestamp = record.timestamp;
        ++_count;
    }

    /** Encoded bytes of the open block. */
    const std::string &payload() const { return _payload; }

    /** Records appended since the last reset(). */
    std::uint64_t recordCount() const { return _count; }

    /** Timestamp of the block's first record (0 when empty). */
    std::uint64_t firstTimestamp() const { return _first_timestamp; }

    /** Timestamp of the block's last record (0 when empty). */
    std::uint64_t lastTimestamp() const { return _last_timestamp; }

    /** Drop the payload and restart the delta bases at (0, 0). */
    void
    reset()
    {
        _payload.clear();
        _count = 0;
        _last_pc = 0;
        _last_timestamp = 0;
        _first_timestamp = 0;
    }

  private:
    std::string _payload;
    std::uint64_t _count = 0;
    std::uint64_t _last_pc = 0;
    std::uint64_t _last_timestamp = 0;
    std::uint64_t _first_timestamp = 0;
};

/**
 * Decode the first @p count records of a block payload at @p cur
 * into @p out[0, count): the one record decoder of the container and
 * the wire.  Returns false when the payload ends first.
 */
inline bool
decodeBlockRecords(ByteCursor &cur, std::uint64_t count,
                   BranchRecord *out)
{
    std::uint64_t pc = 0;
    std::uint64_t timestamp = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
        std::uint64_t pc_raw = 0, ts_raw = 0;
        if (!cur.getVarint(pc_raw) || !cur.getVarint(ts_raw))
            return false;
        pc = static_cast<std::uint64_t>(static_cast<std::int64_t>(pc) +
                                        zigzagDecode(pc_raw));
        timestamp += ts_raw >> 1;
        out[i].pc = pc;
        out[i].timestamp = timestamp;
        out[i].taken = (ts_raw & 1) != 0;
    }
    return true;
}

/**
 * Decode a whole block payload into @p out (appended).  Strict: the
 * payload must hold exactly @p expected_records records and no
 * trailing bytes.  Returns false with a reason in @p error instead of
 * fataling, so protocol handlers can answer with an error frame.
 */
inline bool
decodeBlockPayload(const char *data, std::size_t size,
                   std::uint64_t expected_records,
                   std::vector<BranchRecord> &out, std::string &error)
{
    // Every record takes at least two bytes, so a count the payload
    // cannot hold is rejected before anything is allocated for it.
    if (expected_records > size / 2) {
        error = "payload shorter than record count";
        return false;
    }
    ByteCursor cur(data, size);
    const std::size_t at = out.size();
    out.resize(at + expected_records);
    if (!decodeBlockRecords(cur, expected_records, out.data() + at)) {
        out.resize(at);
        error = "payload shorter than record count";
        return false;
    }
    if (!cur.atEnd()) {
        error = "payload longer than record count";
        return false;
    }
    return true;
}

} // namespace bwsa::store

#endif // BWSA_STORE_WIRE_HH
