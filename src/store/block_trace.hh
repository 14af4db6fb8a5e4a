/**
 * @file
 * The on-disk trace format: a seekable block container.
 *
 * Records are zig-zag/varint delta coded (trace/varint.hh) in
 * fixed-size blocks whose delta bases reset at each block start, so
 * every block decodes independently and reaching record N never means
 * decoding the records before its block.  A footer index locates any
 * block in O(1), and each block carries a CRC-32 so corruption is
 * detected at read time instead of silently skewing analyses.  The
 * header carries version 2; the reader rejects any other version,
 * including version 1 (an unblocked delta stream).
 *
 * Layout (all integers little-endian):
 *
 *   header   magic "BWST" | u32 version = 2
 *   blocks   back-to-back block payloads; per record
 *            varint(zigzag(pc delta)) varint(ts delta << 1 | taken),
 *            with pc/timestamp deltas relative to (0, 0) at the
 *            block's first record
 *   footer   per block, 56 bytes:
 *            u64 offset | u64 payload bytes | u64 first record |
 *            u64 record count | u64 first timestamp |
 *            u64 last timestamp | u32 crc32(payload) | u32 reserved
 *   trailer  36 bytes, fixed at end of file:
 *            u64 footer offset | u64 block count | u64 total records |
 *            u32 crc32(footer) | u32 records-per-block hint |
 *            magic "BWSE"
 *
 * A reader validates header magic/version, trailer magic, structural
 * sizes and the footer CRC up front; block CRCs are verified on every
 * block read.  BlockTraceReader::replayRange() seeks straight to the
 * block containing the range start, so TraceSource::segments(K) costs
 * O(N/K + block) decode per shard instead of O(N).
 */

#ifndef BWSA_STORE_BLOCK_TRACE_HH
#define BWSA_STORE_BLOCK_TRACE_HH

#include <atomic>
#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "store/wire.hh"
#include "trace/trace.hh"

namespace bwsa::store
{

// The framing constants (magics, block_trace_version, structural
// sizes) and TraceBlockInfo live in store/wire.hh, shared with the
// service protocol.

/** Default records per block (~a few hundred KB of varint payload). */
constexpr std::uint64_t default_block_records = 65536;

/**
 * Streaming v2 writer; a TraceSink that encodes to disk in blocks.
 * Deterministic: the same record stream always produces the same
 * bytes, which is what the CI round-trip comparison relies on.
 */
class BlockTraceWriter : public TraceSink
{
  public:
    /**
     * Open @p path for writing; fatal() when the file cannot be made.
     *
     * @param block_records records per block (>= 1)
     */
    explicit BlockTraceWriter(const std::string &path,
                              std::uint64_t block_records =
                                  default_block_records);

    /** Closes (writing footer + trailer) if still open. */
    ~BlockTraceWriter() override;

    BlockTraceWriter(const BlockTraceWriter &) = delete;
    BlockTraceWriter &operator=(const BlockTraceWriter &) = delete;

    void onBranch(const BranchRecord &record) override;

    void onEnd() override { close(); }

    /** Flush the open block and write footer + trailer. */
    void close();

    /** Records written so far. */
    std::uint64_t recordCount() const { return _count; }

    /** Blocks finalized so far (an open partial block not included). */
    std::uint64_t blockCount() const { return _index.size(); }

  private:
    void flushBlock();

    std::ofstream _out;
    std::string _path;
    BlockPayloadEncoder _encoder;      ///< open block's encoded state
    std::vector<TraceBlockInfo> _index;
    std::uint64_t _block_records;
    std::uint64_t _count = 0;          ///< total records written
    std::uint64_t _prev_timestamp = 0; ///< cross-block ascent check
    std::uint64_t _write_offset = 0;   ///< next payload file offset
    bool _open = false;
};

/** Outcome of one block's integrity check (see verifyBlocks()). */
struct BlockCheckResult
{
    std::size_t index = 0;
    bool ok = true;
    std::string message; ///< failure reason when !ok
};

/** How BlockTraceReader accesses block payloads. */
enum class ReadMode
{
    /** mmap when the platform supports it, else buffered streams. */
    Auto,
    /** Require the zero-copy mmap view; fatal() when unavailable. */
    Mmap,
    /** Force the buffered-stream path (tests, odd filesystems). */
    Stream,
};

/**
 * Seekable v2 reader; a replayable TraceSource whose range replay
 * decodes only the blocks covering the requested range.
 *
 * The file is opened exactly once.  In mmap mode (the default on
 * POSIX platforms) block payloads decode straight out of the mapped
 * view -- no payload copies, and concurrent replayRange() calls share
 * the read-only mapping with no synchronization.  The stream fallback
 * keeps one file handle hoisted into the reader; concurrent range
 * replays read payloads into per-call scratch buffers under a short
 * lock and decode outside it.
 */
class BlockTraceReader : public TraceSource
{
  public:
    /**
     * Open and validate @p path: header magic/version, trailer magic,
     * structural sizes, footer CRC and index monotonicity are all
     * checked here; fatal() on any mismatch.  Block payloads are
     * CRC-checked lazily as they are read.
     */
    explicit BlockTraceReader(const std::string &path,
                              ReadMode mode = ReadMode::Auto);

    ~BlockTraceReader() override;

    BlockTraceReader(const BlockTraceReader &) = delete;
    BlockTraceReader &operator=(const BlockTraceReader &) = delete;

    void replay(TraceSink &sink) const override;

    /**
     * Range replay that seeks: binary-searches the footer index for
     * the block containing @p begin, decodes from that block's start
     * (skipping at most one block's worth of in-block prefix) and
     * stops after @p end.  Each covered block decodes in one loop
     * into a per-call buffer and reaches the sink as one onBlock()
     * call; done() is checked between blocks.  Decodes off the shared
     * mapping (or the hoisted stream), so segments of one reader
     * replay concurrently without reopening the file.
     */
    void replayRange(TraceSink &sink, std::uint64_t begin,
                     std::uint64_t end) const override;

    /** True when payloads decode from the zero-copy mmap view. */
    bool usingMmap() const { return _map != nullptr; }

    /** Record count from the trailer (O(1)). */
    std::uint64_t recordCount() const override { return _total; }

    /** Number of blocks in the container. */
    std::uint64_t blockCount() const { return _blocks.size(); }

    /** The footer index, in block order. */
    const std::vector<TraceBlockInfo> &blocks() const
    {
        return _blocks;
    }

    /** Records-per-block hint recorded by the writer. */
    std::uint64_t blockRecordsHint() const { return _block_records; }

    /**
     * Records varint-decoded by this reader so far, including records
     * skipped inside a partially-covered block; added once per block.
     * The sharded-profiling
     * tests assert that shard k's decode cost is O(N/K + block), not
     * O(prefix); a serial replay counts every record once.
     */
    std::uint64_t recordsDecoded() const
    {
        return _decoded.load(std::memory_order_relaxed);
    }

    /** Blocks read (and CRC-checked) by this reader so far. */
    std::uint64_t blocksRead() const
    {
        return _blocks_read.load(std::memory_order_relaxed);
    }

    /**
     * Content digest of the container: a 64-bit FNV-1a over the
     * footer index (block CRCs, counts and timestamp ranges).  Two
     * containers with the same records share the digest; any payload
     * change flips some block CRC and with it the digest.  O(blocks),
     * computed once at open -- this is what cache keys use as the
     * trace identity of an on-disk trace.
     */
    std::uint64_t digest() const { return _digest; }

    /**
     * Integrity sweep: read every block, recompute its CRC and decode
     * it fully, checking record count and timestamp range against the
     * footer.  Unlike replay, failures are reported, not fatal -- the
     * trace_tool `info` command prints one status line per block.
     */
    std::vector<BlockCheckResult> verifyBlocks() const;

  private:
    /**
     * CRC-checked payload bytes of block @p index: a pointer into the
     * mmap view (zero-copy), or into @p scratch after reading through
     * the hoisted stream.  Returns nullptr with a reason in @p error
     * instead of fataling so verifyBlocks() can keep scanning.
     */
    const char *blockData(std::size_t index, std::string &scratch,
                          std::string &error) const;

    std::string _path;
    std::vector<TraceBlockInfo> _blocks;
    std::uint64_t _total = 0;
    std::uint64_t _block_records = 0;
    std::uint64_t _digest = 0;

    /** Zero-copy view of the whole file (null in stream mode). */
    const char *_map = nullptr;
    std::size_t _map_size = 0;

    /** Stream fallback: the one handle opened by the constructor. */
    mutable std::ifstream _in;
    mutable std::mutex _in_mutex;

    mutable std::atomic<std::uint64_t> _decoded{0};
    mutable std::atomic<std::uint64_t> _blocks_read{0};
};

/**
 * Open a trace file as a replayable TraceSource (a BlockTraceReader);
 * fatal() when the file is not a v2 block container.  This is the
 * entry point tools and benches should use for "a trace file on disk".
 */
std::unique_ptr<TraceSource> openTraceReader(const std::string &path);

/** Write an entire source as a v2 container, returning the count. */
std::uint64_t
writeBlockTraceFile(const std::string &path, const TraceSource &source,
                    std::uint64_t block_records =
                        default_block_records);

} // namespace bwsa::store

#endif // BWSA_STORE_BLOCK_TRACE_HH
