#include "store/block_trace.hh"

#include <algorithm>
#include <array>
#include <cstring>
#include <filesystem>

#if defined(__unix__) || defined(__APPLE__)
#define BWSA_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>
#else
#define BWSA_HAVE_MMAP 0
#endif

#include "obs/metrics.hh"
#include "obs/phase_tracer.hh"
#include "store/crc32.hh"
#include "trace/varint.hh"
#include "util/logging.hh"

namespace bwsa::store
{

namespace
{

void
putU32(std::ofstream &out, std::uint32_t v)
{
    char buf[4];
    for (int i = 0; i < 4; ++i)
        buf[i] = static_cast<char>((v >> (8 * i)) & 0xff);
    out.write(buf, 4);
}

#if BWSA_HAVE_MMAP

/** Read-only mapping of @p size bytes of @p path; null on failure. */
const char *
mapFile(const std::string &path, std::size_t size)
{
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return nullptr;
    void *map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd); // the mapping outlives the descriptor
    if (map == MAP_FAILED)
        return nullptr;
    return static_cast<const char *>(map);
}

#endif // BWSA_HAVE_MMAP

} // namespace

// ---------------------------------------------------------------------
// BlockTraceWriter

BlockTraceWriter::BlockTraceWriter(const std::string &path,
                                   std::uint64_t block_records)
    : _path(path), _block_records(block_records)
{
    // Validate before opening: opening truncates an existing file.
    if (_block_records == 0)
        bwsa_fatal("block trace writer needs block_records >= 1");
    _out.open(path, std::ios::binary);
    if (!_out)
        bwsa_fatal("cannot open trace file for writing: ", path);
    _out.write(trace_magic.data(), trace_magic.size());
    putU32(_out, block_trace_version);
    _write_offset = header_bytes;
    _open = true;
}

BlockTraceWriter::~BlockTraceWriter()
{
    close();
}

void
BlockTraceWriter::onBranch(const BranchRecord &record)
{
    if (!_open)
        bwsa_panic("BlockTraceWriter::onBranch after close");
    if (_count != 0 && record.timestamp <= _prev_timestamp)
        bwsa_fatal("trace timestamps must strictly ascend (",
                   record.timestamp, " after ", _prev_timestamp, ")");
    _encoder.append(record);
    _prev_timestamp = record.timestamp;
    ++_count;
    if (_encoder.recordCount() == _block_records)
        flushBlock();
}

void
BlockTraceWriter::flushBlock()
{
    if (_encoder.recordCount() == 0)
        return;
    const std::string &payload = _encoder.payload();
    TraceBlockInfo info;
    info.offset = _write_offset;
    info.payload_bytes = payload.size();
    info.first_record = _count - _encoder.recordCount();
    info.record_count = _encoder.recordCount();
    info.first_timestamp = _encoder.firstTimestamp();
    info.last_timestamp = _encoder.lastTimestamp();
    info.crc = crc32Of(payload);
    _out.write(payload.data(),
               static_cast<std::streamsize>(payload.size()));
    _write_offset += payload.size();
    _index.push_back(info);
    // Next block's deltas restart from (pc 0, timestamp 0) so it
    // decodes with no context from its predecessors.
    _encoder.reset();
}

void
BlockTraceWriter::close()
{
    if (!_open)
        return;
    _open = false;
    flushBlock();

    std::string footer;
    footer.reserve(_index.size() * entry_bytes);
    for (const TraceBlockInfo &info : _index) {
        appendU64(footer, info.offset);
        appendU64(footer, info.payload_bytes);
        appendU64(footer, info.first_record);
        appendU64(footer, info.record_count);
        appendU64(footer, info.first_timestamp);
        appendU64(footer, info.last_timestamp);
        appendU32(footer, info.crc);
        appendU32(footer, 0); // reserved
    }

    std::string trailer;
    trailer.reserve(trailer_bytes);
    appendU64(trailer, _write_offset); // footer offset
    appendU64(trailer, _index.size());
    appendU64(trailer, _count);
    appendU32(trailer, crc32Of(footer));
    appendU32(trailer,
              static_cast<std::uint32_t>(std::min<std::uint64_t>(
                  _block_records, 0xffffffffull)));
    trailer.append(end_magic.data(), end_magic.size());

    _out.write(footer.data(),
               static_cast<std::streamsize>(footer.size()));
    _out.write(trailer.data(),
               static_cast<std::streamsize>(trailer.size()));
    _out.close();
    if (!_out)
        bwsa_fatal("error finalizing trace file: ", _path);
}

// ---------------------------------------------------------------------
// BlockTraceReader

BlockTraceReader::BlockTraceReader(const std::string &path,
                                   ReadMode mode)
    : _path(path)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in)
        bwsa_fatal("cannot open trace file: ", path);
    const std::uint64_t file_size =
        static_cast<std::uint64_t>(in.tellg());
    if (file_size < header_bytes + trailer_bytes)
        bwsa_fatal("trace file too small for a v2 container: ", path);

    std::array<char, 8> header;
    in.seekg(0);
    in.read(header.data(), header.size());
    if (!in || std::memcmp(header.data(), trace_magic.data(), 4) != 0)
        bwsa_fatal("not a BWSA trace file: ", path);
    std::uint32_t version = 0;
    {
        ByteCursor cur(header.data() + 4, 4);
        cur.getU32(version);
    }
    if (version != block_trace_version)
        bwsa_fatal("not a v2 block trace (version ", version, "): ",
                   path);

    std::array<char, trailer_bytes> trailer;
    in.seekg(static_cast<std::streamoff>(file_size - trailer_bytes));
    in.read(trailer.data(), trailer.size());
    if (!in)
        bwsa_fatal("cannot read trace trailer: ", path);
    if (std::memcmp(trailer.data() + trailer_bytes - 4,
                    end_magic.data(), 4) != 0)
        bwsa_fatal("missing block-trace trailer magic (truncated or "
                   "not a v2 container): ", path);

    std::uint64_t footer_offset = 0, block_count = 0;
    std::uint32_t footer_crc = 0, hint = 0;
    {
        ByteCursor cur(trailer.data(), trailer.size());
        cur.getU64(footer_offset);
        cur.getU64(block_count);
        cur.getU64(_total);
        cur.getU32(footer_crc);
        cur.getU32(hint);
    }
    _block_records = hint;

    if (footer_offset < header_bytes ||
        footer_offset + block_count * entry_bytes + trailer_bytes !=
            file_size)
        bwsa_fatal("corrupt block-trace trailer (inconsistent sizes) "
                   "in ", path);

    std::string footer(block_count * entry_bytes, '\0');
    in.seekg(static_cast<std::streamoff>(footer_offset));
    in.read(footer.data(),
            static_cast<std::streamsize>(footer.size()));
    if (!in)
        bwsa_fatal("cannot read trace footer index: ", path);
    if (crc32Of(footer) != footer_crc)
        bwsa_fatal("trace footer index CRC mismatch in ", path);

    _blocks.reserve(block_count);
    ByteCursor cur(footer);
    std::uint64_t next_offset = header_bytes;
    std::uint64_t next_record = 0;
    for (std::uint64_t i = 0; i < block_count; ++i) {
        TraceBlockInfo info;
        std::uint32_t reserved = 0;
        cur.getU64(info.offset);
        cur.getU64(info.payload_bytes);
        cur.getU64(info.first_record);
        cur.getU64(info.record_count);
        cur.getU64(info.first_timestamp);
        cur.getU64(info.last_timestamp);
        cur.getU32(info.crc);
        cur.getU32(reserved);
        // A record takes at least two payload bytes, which also caps
        // the decode buffer a block can ask for.
        if (info.offset != next_offset ||
            info.first_record != next_record ||
            info.record_count == 0 ||
            info.record_count > info.payload_bytes / 2)
            bwsa_fatal("corrupt trace footer index (block ", i,
                       " not contiguous) in ", path);
        next_offset += info.payload_bytes;
        next_record += info.record_count;
        _blocks.push_back(info);
    }
    if (next_record != _total || next_offset != footer_offset)
        bwsa_fatal("corrupt trace footer index (totals disagree with "
                   "trailer) in ", path);

    // Content digest: FNV-1a over the footer (block CRCs + counts +
    // timestamp ranges), salted with the total so empty files differ
    // from the bare offset basis.
    std::uint64_t digest = fnv1a64_basis;
    digest = fnv1a64(digest, footer.data(), footer.size());
    digest = fnv1a64(digest, &_total, sizeof(_total));
    _digest = digest;

    // Payload access: map the validated file read-only, falling back
    // to the already-open stream (hoisted into the reader; the file is
    // never reopened per replay).
    if (mode != ReadMode::Stream) {
#if BWSA_HAVE_MMAP
        _map = mapFile(path, static_cast<std::size_t>(file_size));
        _map_size = static_cast<std::size_t>(file_size);
#endif
        if (!_map && mode == ReadMode::Mmap)
            bwsa_fatal("cannot mmap trace file: ", path);
    }
    if (!_map) {
        in.clear();
        _in = std::move(in);
    }
}

BlockTraceReader::~BlockTraceReader()
{
#if BWSA_HAVE_MMAP
    if (_map)
        ::munmap(const_cast<char *>(_map), _map_size);
#endif
}

const char *
BlockTraceReader::blockData(std::size_t index, std::string &scratch,
                            std::string &error) const
{
    const TraceBlockInfo &info = _blocks[index];
    const char *data = nullptr;
    if (_map) {
        // The constructor verified offset + payload_bytes chains up to
        // the footer offset inside the mapped file, so the view is in
        // bounds.
        data = _map + info.offset;
    } else {
        scratch.resize(info.payload_bytes);
        std::lock_guard<std::mutex> lock(_in_mutex);
        _in.clear();
        _in.seekg(static_cast<std::streamoff>(info.offset));
        _in.read(scratch.data(),
                 static_cast<std::streamsize>(scratch.size()));
        if (!_in) {
            error = "truncated block payload";
            return nullptr;
        }
        data = scratch.data();
    }
    if (crc32Of(data, info.payload_bytes) != info.crc) {
        error = "block CRC mismatch";
        return nullptr;
    }
    _blocks_read.fetch_add(1, std::memory_order_relaxed);
    return data;
}

void
BlockTraceReader::replay(TraceSink &sink) const
{
    replayRange(sink, 0, _total);
}

void
BlockTraceReader::replayRange(TraceSink &sink, std::uint64_t begin,
                              std::uint64_t end) const
{
    if (end > _total)
        end = _total;
    if (begin > end)
        begin = end;

    obs::PhaseTracer::Span span("trace.block_replay");
    span.addWork(end - begin);
    obs::MetricsRegistry::global()
        .counter("trace.block.records_read")
        .inc(end - begin);

    if (begin == end) {
        sink.onEnd();
        return;
    }

    // First block whose record range covers `begin`: the last block
    // with first_record <= begin.
    auto it = std::upper_bound(
        _blocks.begin(), _blocks.end(), begin,
        [](std::uint64_t pos, const TraceBlockInfo &info) {
            return pos < info.first_record;
        });
    std::size_t block = static_cast<std::size_t>(
        std::distance(_blocks.begin(), it)) - 1;

    // One decode loop per block into a per-call buffer (concurrent
    // segment replays share nothing mutable), one decode-count add
    // and one onBlock() call per block, and done() between blocks.
    std::vector<BranchRecord> records;
    std::string scratch;
    std::string error;
    for (; block < _blocks.size() && !sink.done(); ++block) {
        const TraceBlockInfo &info = _blocks[block];
        if (info.first_record >= end)
            break;
        const char *data = blockData(block, scratch, error);
        if (!data)
            bwsa_fatal("corrupt trace block ", block, " in ", _path,
                       ": ", error);
        // Records [lo, hi) of this block are in range; the in-block
        // prefix [0, lo) is decoded only to reach lo.
        const std::uint64_t lo =
            begin > info.first_record ? begin - info.first_record : 0;
        const std::uint64_t hi =
            std::min(end - info.first_record, info.record_count);
        if (records.size() < hi)
            records.resize(hi);
        ByteCursor cur(data, info.payload_bytes);
        if (!decodeBlockRecords(cur, hi, records.data()))
            bwsa_fatal("corrupt trace block ", block, " in ", _path,
                       ": payload shorter than record count");
        _decoded.fetch_add(hi, std::memory_order_relaxed);
        sink.onBlock(std::span<const BranchRecord>(
            records.data() + lo, static_cast<std::size_t>(hi - lo)));
    }
    sink.onEnd();
}

std::vector<BlockCheckResult>
BlockTraceReader::verifyBlocks() const
{
    std::vector<BlockCheckResult> results;
    results.reserve(_blocks.size());
    std::string scratch;
    for (std::size_t b = 0; b < _blocks.size(); ++b) {
        const TraceBlockInfo &info = _blocks[b];
        BlockCheckResult result;
        result.index = b;
        const char *data = blockData(b, scratch, result.message);
        if (!data) {
            result.ok = false;
            results.push_back(result);
            continue;
        }
        // Decode the whole block and cross-check the footer metadata.
        ByteCursor cur(data, info.payload_bytes);
        std::uint64_t timestamp = 0;
        std::uint64_t first_ts = 0, decoded = 0;
        while (!cur.atEnd()) {
            std::uint64_t pc_raw = 0, ts_raw = 0;
            if (!cur.getVarint(pc_raw) || !cur.getVarint(ts_raw)) {
                result.ok = false;
                result.message = "payload ends mid-record";
                break;
            }
            timestamp += ts_raw >> 1;
            if (decoded == 0)
                first_ts = timestamp;
            ++decoded;
        }
        _decoded.fetch_add(decoded, std::memory_order_relaxed);
        if (result.ok && decoded != info.record_count) {
            result.ok = false;
            result.message = "record count disagrees with footer";
        }
        if (result.ok && (first_ts != info.first_timestamp ||
                          timestamp != info.last_timestamp)) {
            result.ok = false;
            result.message = "timestamp range disagrees with footer";
        }
        results.push_back(result);
    }
    return results;
}

// ---------------------------------------------------------------------
// Free functions

std::unique_ptr<TraceSource>
openTraceReader(const std::string &path)
{
    return std::make_unique<BlockTraceReader>(path);
}

std::uint64_t
writeBlockTraceFile(const std::string &path, const TraceSource &source,
                    std::uint64_t block_records)
{
    BWSA_SPAN("trace.block_write");
    BlockTraceWriter writer(path, block_records);
    source.replay(writer);
    writer.close();
    obs::MetricsRegistry::global()
        .counter("trace.block.records_written")
        .inc(writer.recordCount());
    return writer.recordCount();
}

} // namespace bwsa::store
