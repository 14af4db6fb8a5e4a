/**
 * @file
 * Tests of the persistence layer (src/store):
 *
 *  - the v2 block container round-trips any trace exactly, for block
 *    sizes from 1 record up, and its range replay seeks -- decoding
 *    only the blocks covering the range, never the prefix;
 *  - corruption (flipped payload byte, truncation, missing footer,
 *    damaged footer CRC) is detected loudly, never silently decoded;
 *  - the artifact cache stores/loads atomically, self-heals corrupt
 *    entries, evicts LRU beyond its cap, and persists across reopen;
 *  - profile artifacts round-trip a full profile (stats + selection
 *    + graph), reject stale schemas and structural damage, and an
 *    imported artifact drives the pipeline to the same allocation as
 *    a fresh profile.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <thread>

#include "core/pipeline.hh"
#include "obs/branch_telemetry.hh"
#include "obs/phase_detect.hh"
#include "predict/factory.hh"
#include "profile/shard.hh"
#include "sim/batched_replay.hh"
#include "store/artifact_cache.hh"
#include "store/block_trace.hh"
#include "store/crc32.hh"
#include "store/profile_artifact.hh"
#include "test_helpers.hh"
#include "trace/frequency_filter.hh"
#include "trace/trace_stats.hh"
#include "util/random.hh"

using namespace bwsa;
using namespace bwsa::store;

namespace
{

/** Random trace with strictly ascending timestamps. */
MemoryTrace
makeRandomTrace(std::uint64_t seed, std::size_t records,
                std::uint64_t distinct = 400)
{
    Pcg32 rng(seed);
    MemoryTrace trace;
    std::uint64_t ts = 0;
    for (std::size_t i = 0; i < records; ++i) {
        BranchRecord r;
        r.pc = 0x400000 + 8ull * rng.nextBounded(
                              static_cast<std::uint32_t>(distinct));
        ts += 1 + rng.nextBounded(20);
        r.timestamp = ts;
        r.taken = rng.nextBool(0.6);
        trace.onBranch(r);
    }
    return trace;
}

/** Temp file path helper; unique per stem. */
std::string
tempPath(const std::string &stem)
{
    return (std::filesystem::temp_directory_path() /
            ("bwsa_store_test_" + stem))
        .string();
}

/** Fresh (removed, then unique) temp directory for a cache. */
std::string
tempDir(const std::string &stem)
{
    std::string dir = tempPath(stem + ".dir");
    std::filesystem::remove_all(dir);
    return dir;
}

/** Sink that records everything it is delivered. */
class RecordingSink : public TraceSink
{
  public:
    void
    onBranch(const BranchRecord &r) override
    {
        records.push_back(r);
    }
    void onEnd() override { ++ends; }
    std::vector<BranchRecord> records;
    int ends = 0;
};

/** Sink that stops after @p limit deliveries. */
class StoppingSink : public TraceSink
{
  public:
    explicit StoppingSink(int limit) : _limit(limit) {}
    void onBranch(const BranchRecord &) override { ++branches; }
    void onEnd() override { ++ends; }
    bool done() const override { return branches >= _limit; }
    int branches = 0;
    int ends = 0;

  private:
    int _limit;
};

bool
sameRecord(const BranchRecord &a, const BranchRecord &b)
{
    return a.pc == b.pc && a.timestamp == b.timestamp &&
           a.taken == b.taken;
}

/**
 * Bitwise CRC-32 (reflected polynomial 0xEDB88320, no tables): the
 * oracle the table-driven crc32Of() is checked against.
 */
std::uint32_t
bitwiseCrc32(const void *data, std::size_t size)
{
    const auto *p = static_cast<const unsigned char *>(data);
    std::uint32_t crc = 0xffffffffu;
    for (std::size_t i = 0; i < size; ++i) {
        crc ^= p[i];
        for (int bit = 0; bit < 8; ++bit)
            crc = (crc & 1) ? (crc >> 1) ^ 0xedb88320u : crc >> 1;
    }
    return crc ^ 0xffffffffu;
}

/** Write @p trace as v2 at a fresh temp path; returns the path. */
std::string
writeV2(const MemoryTrace &trace, const std::string &stem,
        std::uint64_t block_records)
{
    std::string path = tempPath(stem + ".trace");
    std::filesystem::remove(path);
    writeBlockTraceFile(path, trace, block_records);
    return path;
}

/** Flip one byte of the file at @p offset. */
void
flipByte(const std::string &path, std::uint64_t offset)
{
    std::fstream f(path,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekg(static_cast<std::streamoff>(offset));
    char c = 0;
    f.read(&c, 1);
    c = static_cast<char>(c ^ 0x5a);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(&c, 1);
}

/** Truncate the file to @p keep bytes. */
void
truncateFile(const std::string &path, std::uint64_t keep)
{
    std::filesystem::resize_file(path, keep);
}

} // namespace

// ------------------------------------------------------- block container

TEST(BlockTrace, RoundTripsAcrossBlockSizes)
{
    // Random traces of seeds 1, 2, 3, 42 and 999 over 5000 pcs, one
    // over 200 pcs, and a short cyclic one.
    std::vector<MemoryTrace> traces;
    for (std::uint64_t seed : {1u, 2u, 3u, 42u, 999u})
        traces.push_back(makeRandomTrace(seed, 5000, 5000));
    traces.push_back(makeRandomTrace(3, 1000, 200));
    MemoryTrace cyclic;
    for (std::uint64_t i = 0; i < 100; ++i)
        cyclic.onBranch({0x400000 + 8 * (i % 7), 5 * (i + 1), i % 3 == 0});
    traces.push_back(cyclic);

    // Block sizes covering: one record per block, partial last block,
    // exact multiple, and everything in one block.
    for (std::size_t t = 0; t < traces.size(); ++t) {
        const MemoryTrace &trace = traces[t];
        for (std::uint64_t block_records :
             {std::uint64_t(1), std::uint64_t(7), std::uint64_t(64),
              std::uint64_t(250), std::uint64_t(1000),
              std::uint64_t(100000)}) {
            SCOPED_TRACE(::testing::Message()
                         << "trace " << t
                         << " block_records=" << block_records);
            std::string path = tempPath("roundtrip.trace");
            std::filesystem::remove(path);
            EXPECT_EQ(writeBlockTraceFile(path, trace, block_records),
                      trace.recordCount());
            BlockTraceReader reader(path);
            EXPECT_EQ(reader.recordCount(), trace.recordCount());
            EXPECT_EQ(reader.blockRecordsHint(),
                      std::min<std::uint64_t>(block_records,
                                              0xffffffffu));

            RecordingSink sink;
            reader.replay(sink);
            ASSERT_EQ(sink.records.size(), trace.size());
            EXPECT_EQ(sink.ends, 1);
            for (std::size_t i = 0; i < trace.size(); ++i)
                ASSERT_TRUE(sameRecord(sink.records[i], trace[i]))
                    << "record " << i;

            // The generic entry point replays the same records, and
            // again identically on a second replay.
            auto source = openTraceReader(path);
            EXPECT_EQ(source->recordCount(), trace.recordCount());
            MemoryTrace first, second;
            source->replay(first);
            source->replay(second);
            ASSERT_EQ(first.size(), trace.size());
            ASSERT_EQ(second.size(), trace.size());
            for (std::size_t i = 0; i < trace.size(); ++i) {
                ASSERT_EQ(first[i], trace[i]) << "record " << i;
                ASSERT_EQ(second[i], first[i]) << "record " << i;
            }
            std::filesystem::remove(path);
        }
    }
}

TEST(BlockTrace, FooterDescribesBlocksExactly)
{
    MemoryTrace trace = makeRandomTrace(5, 1000, 100);
    std::string path = writeV2(trace, "footer", 300);
    BlockTraceReader reader(path);
    ASSERT_EQ(reader.blockCount(), 4u); // 300+300+300+100
    const std::vector<TraceBlockInfo> &blocks = reader.blocks();
    std::uint64_t first = 0;
    for (std::size_t i = 0; i < blocks.size(); ++i) {
        EXPECT_EQ(blocks[i].first_record, first);
        first += blocks[i].record_count;
        EXPECT_EQ(blocks[i].first_timestamp,
                  trace[blocks[i].first_record].timestamp);
        EXPECT_EQ(blocks[i].last_timestamp,
                  trace[first - 1].timestamp);
    }
    EXPECT_EQ(first, trace.recordCount());
    EXPECT_EQ(blocks.back().record_count, 100u);

    for (const BlockCheckResult &check : reader.verifyBlocks())
        EXPECT_TRUE(check.ok) << "block " << check.index << ": "
                              << check.message;
    std::filesystem::remove(path);
}

TEST(BlockTrace, EmptyTraceRoundTrips)
{
    MemoryTrace empty;
    std::string path = writeV2(empty, "empty", 64);
    BlockTraceReader reader(path);
    EXPECT_EQ(reader.recordCount(), 0u);
    EXPECT_EQ(reader.blockCount(), 0u);
    RecordingSink sink;
    reader.replay(sink);
    EXPECT_TRUE(sink.records.empty());
    EXPECT_EQ(sink.ends, 1);
    std::filesystem::remove(path);
}

TEST(BlockTrace, ReplayRangeMatchesSlices)
{
    MemoryTrace trace = makeRandomTrace(7, 900, 150);
    std::string path = writeV2(trace, "range", 128);
    BlockTraceReader reader(path);

    const std::uint64_t n = trace.recordCount();
    const std::pair<std::uint64_t, std::uint64_t> ranges[] = {
        {0, n},        {0, 1},       {127, 129},  {128, 256},
        {500, 900},    {899, 900},   {300, 300},  {250, 700},
        {n, n + 50},   {0, n + 100},
    };
    for (auto [begin, end] : ranges) {
        RecordingSink sink;
        reader.replayRange(sink, begin, end);
        std::uint64_t lo = std::min(begin, n);
        std::uint64_t hi = std::min(end, n);
        if (hi < lo)
            hi = lo;
        ASSERT_EQ(sink.records.size(), hi - lo)
            << "range [" << begin << ", " << end << ")";
        EXPECT_EQ(sink.ends, 1);
        for (std::uint64_t i = lo; i < hi; ++i)
            ASSERT_TRUE(sameRecord(sink.records[i - lo], trace[i]))
                << "range [" << begin << ", " << end << ") record "
                << i;
    }
    std::filesystem::remove(path);
}

TEST(BlockTrace, RangeReplaySeeksInsteadOfSkipDecoding)
{
    // 10 blocks of 100 records.  Replaying the last 100 records must
    // decode only the final block -- not the 900-record prefix.
    MemoryTrace trace = makeRandomTrace(11, 1000, 80);
    std::string path = writeV2(trace, "seek", 100);
    BlockTraceReader reader(path);
    ASSERT_EQ(reader.blockCount(), 10u);

    RecordingSink sink;
    reader.replayRange(sink, 900, 1000);
    EXPECT_EQ(sink.records.size(), 100u);
    EXPECT_EQ(reader.recordsDecoded(), 100u);
    EXPECT_EQ(reader.blocksRead(), 1u);

    // A mid-block start decodes at most one extra block's prefix.
    RecordingSink mid;
    reader.replayRange(mid, 450, 650);
    EXPECT_EQ(mid.records.size(), 200u);
    EXPECT_EQ(reader.recordsDecoded() - 100u, 250u); // blocks 4..6
    EXPECT_EQ(reader.blocksRead() - 1u, 3u);
    std::filesystem::remove(path);
}

TEST(BlockTrace, DoneStopsMidBlock)
{
    MemoryTrace trace = makeRandomTrace(13, 600, 50);
    std::string path = writeV2(trace, "done", 200);
    BlockTraceReader reader(path);

    StoppingSink sink(10);
    reader.replay(sink);
    EXPECT_EQ(sink.branches, 10);
    EXPECT_EQ(sink.ends, 1); // onEnd still delivered
    // Stopping in block 0 must not read blocks 1 and 2.
    EXPECT_EQ(reader.blocksRead(), 1u);
    std::filesystem::remove(path);
}

TEST(BlockTrace, SegmentsCoverTheTrace)
{
    MemoryTrace trace = makeRandomTrace(17, 500, 60);
    std::string path = writeV2(trace, "segments", 64);
    BlockTraceReader reader(path);

    std::vector<TraceSegment> segments = reader.segments(4);
    ASSERT_EQ(segments.size(), 4u);
    std::vector<BranchRecord> all;
    for (const TraceSegment &segment : segments) {
        RecordingSink sink;
        segment.replay(sink);
        all.insert(all.end(), sink.records.begin(),
                   sink.records.end());
    }
    ASSERT_EQ(all.size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i)
        ASSERT_TRUE(sameRecord(all[i], trace[i])) << "record " << i;
    std::filesystem::remove(path);
}

TEST(BlockTrace, DigestIdentifiesContent)
{
    MemoryTrace trace = makeRandomTrace(19, 400, 40);
    std::string a = writeV2(trace, "digest_a", 100);
    std::string b = writeV2(trace, "digest_b", 100);
    BlockTraceReader ra(a), rb(b);
    EXPECT_EQ(ra.digest(), rb.digest());
    EXPECT_NE(ra.digest(), 0u);

    // One different record => different block CRC => different digest.
    MemoryTrace other = trace;
    BranchRecord extra;
    extra.pc = 0x500000;
    extra.timestamp = trace[trace.size() - 1].timestamp + 5;
    extra.taken = true;
    other.onBranch(extra);
    std::string c = writeV2(other, "digest_c", 100);
    BlockTraceReader rc(c);
    EXPECT_NE(ra.digest(), rc.digest());
    std::filesystem::remove(a);
    std::filesystem::remove(b);
    std::filesystem::remove(c);
}

TEST(BlockTrace, WriterBytesMatchRecordedContainer)
{
    // 40 records in blocks of 16: header, three block payloads, the
    // footer and the trailer, as written before the CRC went
    // slicing-by-8.  Any change to the writer's bytes or to a block
    // or footer CRC shows here.
    const std::string recorded_hex =
        "4257535402000000908080041e900312ef02253009d00213ff0222d0011d8001"
        "211f0530178f010f1026c0010cbf0102c001209f0104c0818004e902e00119ef"
        "0102b001287f0d3f1690020610142f1e3013ff020ba0021c7f044005bf011f30"
        "1fc0838004a105ff0207e001155007ef011b900106b001209f031b0800000000"
        "0000002e00000000000000000000000000000010000000000000000f00000000"
        "000000a600000000000000379e60200000000036000000000000002b00000000"
        "00000010000000000000001000000000000000b4000000000000004001000000"
        "000000ed8c7a1a0000000061000000000000001a000000000000002000000000"
        "000000080000000000000050010000000000008d01000000000000f5cab32700"
        "0000007b000000000000000300000000000000280000000000000043c543d710"
        "00000042575345";
    std::string recorded;
    for (std::size_t i = 0; i < recorded_hex.size(); i += 2)
        recorded.push_back(static_cast<char>(
            std::stoi(recorded_hex.substr(i, 2), nullptr, 16)));

    MemoryTrace trace = makeRandomTrace(29, 40, 30);
    std::string path = writeV2(trace, "recorded", 16);
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    EXPECT_EQ(bytes, recorded);

    BlockTraceReader reader(path);
    ASSERT_EQ(reader.blockCount(), 3u);
    for (std::size_t b = 0; b < reader.blockCount(); ++b) {
        const TraceBlockInfo &info = reader.blocks()[b];
        EXPECT_EQ(info.crc, bitwiseCrc32(bytes.data() + info.offset,
                                         info.payload_bytes))
            << "block " << b;
    }
    RecordingSink sink;
    reader.replay(sink);
    ASSERT_EQ(sink.records.size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i)
        EXPECT_TRUE(sameRecord(sink.records[i], trace[i])) << i;
    EXPECT_EQ(reader.recordsDecoded(), 40u);
    std::filesystem::remove(path);
}

TEST(BlockTrace, WriterRejectsNonAscendingTimestamps)
{
    EXPECT_EXIT(
        {
            std::string path = tempPath("descending.trace");
            BlockTraceWriter writer(path, 16);
            BranchRecord a;
            a.pc = 0x400000;
            a.timestamp = 10;
            a.taken = true;
            BranchRecord b = a; // same timestamp: not ascending
            b.pc = 0x400008;
            writer.onBranch(a);
            writer.onBranch(b);
        },
        ::testing::ExitedWithCode(1), "strictly ascend");
}

TEST(BlockTrace, WriterRejectsZeroBlockRecordsBeforeTruncating)
{
    // The size check must run before the file is opened: opening
    // truncates, and a rejected writer must leave an existing file
    // exactly as it was.
    MemoryTrace trace = makeRandomTrace(29, 200, 20);
    std::string path = writeV2(trace, "zero_block", 50);
    auto bytes = [&] {
        std::ifstream in(path, std::ios::binary);
        return std::string(std::istreambuf_iterator<char>(in), {});
    };
    const std::string before = bytes();
    ASSERT_FALSE(before.empty());

    EXPECT_EXIT({ BlockTraceWriter writer(path, 0); },
                ::testing::ExitedWithCode(1), "block_records >= 1");

    EXPECT_EQ(bytes(), before);
    std::filesystem::remove(path);
}

// ----------------------------------------------------------- read modes

TEST(BlockTraceReadMode, AutoPrefersMmapWherePossible)
{
    MemoryTrace trace = makeRandomTrace(37, 300, 30);
    std::string path = writeV2(trace, "mode_auto", 100);

    BlockTraceReader auto_reader(path);
#if defined(__unix__) || defined(__APPLE__)
    EXPECT_TRUE(auto_reader.usingMmap());
    BlockTraceReader mmap_reader(path, ReadMode::Mmap);
    EXPECT_TRUE(mmap_reader.usingMmap());
#endif
    BlockTraceReader stream_reader(path, ReadMode::Stream);
    EXPECT_FALSE(stream_reader.usingMmap());
    std::filesystem::remove(path);
}

TEST(BlockTraceReadMode, MmapAndStreamReplayIdentically)
{
    MemoryTrace trace = makeRandomTrace(41, 900, 120);
    std::string path = writeV2(trace, "mode_identity", 128);

    BlockTraceReader mapped(path);           // Auto: mmap on POSIX
    BlockTraceReader streamed(path, ReadMode::Stream);
    EXPECT_EQ(mapped.digest(), streamed.digest());
    EXPECT_EQ(mapped.recordCount(), streamed.recordCount());

    // Full replay delivers the same records through either path.
    RecordingSink from_map, from_stream;
    mapped.replay(from_map);
    streamed.replay(from_stream);
    ASSERT_EQ(from_map.records.size(), from_stream.records.size());
    for (std::size_t i = 0; i < from_map.records.size(); ++i)
        ASSERT_TRUE(
            sameRecord(from_map.records[i], from_stream.records[i]))
            << "record " << i;

    // Range replays, including block-boundary and past-the-end cases.
    const std::uint64_t n = trace.recordCount();
    const std::pair<std::uint64_t, std::uint64_t> ranges[] = {
        {0, n},     {0, 1},    {127, 129}, {128, 256},
        {500, 900}, {899, n},  {300, 300}, {n, n + 10},
    };
    for (auto [begin, end] : ranges) {
        RecordingSink a, b;
        mapped.replayRange(a, begin, end);
        streamed.replayRange(b, begin, end);
        ASSERT_EQ(a.records.size(), b.records.size())
            << "range [" << begin << ", " << end << ")";
        for (std::size_t i = 0; i < a.records.size(); ++i)
            ASSERT_TRUE(sameRecord(a.records[i], b.records[i]));
        EXPECT_EQ(a.ends, 1);
        EXPECT_EQ(b.ends, 1);
    }

    // Early-stopping sinks behave identically: stop mid-block, touch
    // only the blocks actually needed.
    StoppingSink stop_map(10), stop_stream(10);
    std::uint64_t map_blocks = mapped.blocksRead();
    std::uint64_t stream_blocks = streamed.blocksRead();
    mapped.replay(stop_map);
    streamed.replay(stop_stream);
    EXPECT_EQ(stop_map.branches, stop_stream.branches);
    EXPECT_EQ(stop_map.ends, 1);
    EXPECT_EQ(stop_stream.ends, 1);
    EXPECT_EQ(mapped.blocksRead() - map_blocks, 1u);
    EXPECT_EQ(streamed.blocksRead() - stream_blocks, 1u);

    for (const BlockCheckResult &check : streamed.verifyBlocks())
        EXPECT_TRUE(check.ok) << check.message;
    std::filesystem::remove(path);
}

TEST(BlockTraceReadMode, ConcurrentSegmentsShareOneHandle)
{
    // Sharded profiling replays segments of one reader concurrently.
    // Both read paths must serve parallel replayRange calls off the
    // single handle opened at construction (the stream path guards a
    // shared ifstream; mmap needs no synchronization at all).
    MemoryTrace trace = makeRandomTrace(43, 1200, 90);
    std::string path = writeV2(trace, "mode_threads", 100);

    for (ReadMode mode : {ReadMode::Auto, ReadMode::Stream}) {
        BlockTraceReader reader(path, mode);
        constexpr std::size_t workers = 6;
        std::uint64_t span = trace.recordCount() / workers;
        std::vector<RecordingSink> sinks(workers);
        std::vector<std::thread> threads;
        for (std::size_t w = 0; w < workers; ++w)
            threads.emplace_back([&, w] {
                std::uint64_t begin = w * span;
                std::uint64_t end = (w + 1 == workers)
                                        ? trace.recordCount()
                                        : begin + span;
                reader.replayRange(sinks[w], begin, end);
            });
        for (std::thread &t : threads)
            t.join();

        std::vector<BranchRecord> all;
        for (const RecordingSink &sink : sinks)
            all.insert(all.end(), sink.records.begin(),
                       sink.records.end());
        ASSERT_EQ(all.size(), trace.size());
        for (std::size_t i = 0; i < trace.size(); ++i)
            ASSERT_TRUE(sameRecord(all[i], trace[i]))
                << "record " << i;
    }
    std::filesystem::remove(path);
}

TEST(BlockTraceReadMode, CorruptionDetectedInBothModes)
{
    MemoryTrace trace = makeRandomTrace(47, 500, 50);
    std::string path = writeV2(trace, "mode_corrupt", 100);
    flipByte(path, 20); // inside block 0's payload

    for (ReadMode mode : {ReadMode::Auto, ReadMode::Stream}) {
        BlockTraceReader reader(path, mode);
        std::vector<BlockCheckResult> checks = reader.verifyBlocks();
        ASSERT_EQ(checks.size(), 5u);
        EXPECT_FALSE(checks[0].ok);
        EXPECT_NE(checks[0].message.find("CRC"), std::string::npos);
        for (std::size_t i = 1; i < checks.size(); ++i)
            EXPECT_TRUE(checks[i].ok) << "block " << i;
    }
    std::filesystem::remove(path);
}

// ------------------------------------------------- corruption detection

TEST(BlockTraceCorruption, FlippedPayloadByteIsFatalOnReplay)
{
    MemoryTrace trace = makeRandomTrace(29, 500, 50);
    std::string path = writeV2(trace, "flip", 100);
    // Offset 20 lands inside block 0's payload (header is 8 bytes).
    flipByte(path, 20);

    EXPECT_EXIT(
        {
            BlockTraceReader reader(path);
            RecordingSink sink;
            reader.replay(sink);
        },
        ::testing::ExitedWithCode(1), "corrupt trace block 0");

    // verifyBlocks reports the damage without dying, and pins it to
    // exactly the block containing the flipped byte.
    BlockTraceReader reader(path);
    std::vector<BlockCheckResult> checks = reader.verifyBlocks();
    ASSERT_EQ(checks.size(), 5u);
    EXPECT_FALSE(checks[0].ok);
    EXPECT_NE(checks[0].message.find("CRC"), std::string::npos);
    for (std::size_t i = 1; i < checks.size(); ++i)
        EXPECT_TRUE(checks[i].ok) << "block " << i;
    std::filesystem::remove(path);
}

TEST(BlockTraceCorruption, TruncationIsFatalAtOpen)
{
    MemoryTrace trace = makeRandomTrace(31, 400, 40);
    std::string path = writeV2(trace, "truncate", 100);
    std::uint64_t size = std::filesystem::file_size(path);
    truncateFile(path, size - 20);
    EXPECT_EXIT({ BlockTraceReader reader(path); },
                ::testing::ExitedWithCode(1), "trailer");
    std::filesystem::remove(path);
}

TEST(BlockTraceCorruption, MissingFooterIsFatalAtOpen)
{
    MemoryTrace trace = makeRandomTrace(37, 400, 40);
    std::string path = writeV2(trace, "nofooter", 100);
    BlockTraceReader intact(path);
    // Drop the whole footer + trailer, keeping only the payloads.
    truncateFile(path, intact.blocks().back().offset +
                           intact.blocks().back().payload_bytes);
    EXPECT_EXIT({ BlockTraceReader reader(path); },
                ::testing::ExitedWithCode(1), "trailer");
    std::filesystem::remove(path);
}

TEST(BlockTraceCorruption, DamagedFooterCrcIsFatalAtOpen)
{
    MemoryTrace trace = makeRandomTrace(41, 400, 40);
    std::string path = writeV2(trace, "footercrc", 100);
    std::uint64_t size = std::filesystem::file_size(path);
    // The footer's first entry starts footer_offset bytes in; damage
    // a byte inside the footer region (36-byte trailer at the end,
    // 4 blocks x 56-byte entries before it).
    flipByte(path, size - 36 - 4 * 56 + 10);
    EXPECT_EXIT({ BlockTraceReader reader(path); },
                ::testing::ExitedWithCode(1), "footer");
    std::filesystem::remove(path);
}

TEST(BlockTraceCorruption, NotATraceIsFatal)
{
    std::string path = tempPath("nottrace.trace");
    {
        std::ofstream out(path, std::ios::binary);
        out << "this is not a trace file, it only plays one on tv";
    }
    EXPECT_EXIT({ openTraceReader(path); },
                ::testing::ExitedWithCode(1), "not a BWSA trace");
    std::filesystem::remove(path);
}

TEST(BlockTraceCorruption, V1HeaderIsFatal)
{
    // Version 1 (the unblocked delta stream) is no longer readable;
    // its header must be rejected by name, not misread as blocks.
    std::string path = tempPath("v1header.trace");
    {
        std::ofstream out(path, std::ios::binary);
        out.write("BWST", 4);
        const char version_one[4] = {1, 0, 0, 0};
        out.write(version_one, 4);
        out << std::string(64, '\0'); // clear the minimum-size check
    }
    EXPECT_EXIT({ openTraceReader(path); },
                ::testing::ExitedWithCode(1), "not a v2 block trace");
    std::filesystem::remove(path);
}

// ------------------------------------------------------------ crc32

TEST(Crc32, MatchesKnownVectors)
{
    // IEEE CRC-32 of "123456789" is the classic check value.
    EXPECT_EQ(crc32Of("123456789"), 0xcbf43926u);
    EXPECT_EQ(crc32Of(""), 0u);
    // Incremental == one-shot.
    Crc32 crc;
    crc.update("1234");
    crc.update("56789");
    EXPECT_EQ(crc.value(), 0xcbf43926u);
}

TEST(Crc32, MatchesBitwiseOracleAtEveryLengthAndOffset)
{
    // Every length 0-130 (the 8-byte steps plus every tail length) at
    // every alignment 0-7.
    Pcg32 rng(101);
    std::vector<unsigned char> buffer(8 + 130);
    for (std::size_t offset = 0; offset < 8; ++offset) {
        for (std::size_t length = 0; length <= 130; ++length) {
            for (unsigned char &byte : buffer)
                byte = static_cast<unsigned char>(rng.nextBounded(256));
            const unsigned char *data = buffer.data() + offset;
            ASSERT_EQ(crc32Of(data, length), bitwiseCrc32(data, length))
                << "offset " << offset << " length " << length;
        }
    }
}

TEST(Crc32, SplitUpdatesMatchOneShot)
{
    Pcg32 rng(103);
    std::vector<unsigned char> buffer(130);
    for (unsigned char &byte : buffer)
        byte = static_cast<unsigned char>(rng.nextBounded(256));
    const std::uint32_t whole = crc32Of(buffer.data(), buffer.size());
    EXPECT_EQ(whole, bitwiseCrc32(buffer.data(), buffer.size()));
    for (std::size_t split = 0; split <= buffer.size(); ++split) {
        Crc32 crc;
        crc.update(buffer.data(), split);
        EXPECT_EQ(crc.value(), bitwiseCrc32(buffer.data(), split));
        crc.update(buffer.data() + split, buffer.size() - split);
        EXPECT_EQ(crc.value(), whole) << "split at " << split;
    }
}

// ------------------------------------------------------- cache keys

TEST(CacheKey, DeterministicAndSensitive)
{
    auto build = [](std::uint64_t records, double scale) {
        CacheKeyBuilder b;
        b.add("trace", "pgp:a").add("records", records).add("scale",
                                                            scale);
        return b.key();
    };
    std::string key = build(1000, 0.5);
    EXPECT_EQ(key.size(), 32u);
    EXPECT_EQ(key, build(1000, 0.5));
    EXPECT_NE(key, build(1001, 0.5));
    EXPECT_NE(key, build(1000, 0.25));

    // Field *names* are part of the material: same values under
    // different names must not collide.
    CacheKeyBuilder renamed;
    renamed.add("trace2", "pgp:a")
        .add("records", std::uint64_t(1000))
        .add("scale", 0.5);
    EXPECT_NE(key, renamed.key());

    for (char c : key)
        EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))
            << "non-hex key character " << c;
}

// -------------------------------------------------------- artifact cache

TEST(ArtifactCache, StoreLoadMiss)
{
    std::string dir = tempDir("cache_basic");
    ArtifactCache cache(dir);
    EXPECT_EQ(cache.load("0123456789abcdef0123456789abcdef"),
              std::nullopt);
    EXPECT_EQ(cache.misses(), 1u);

    cache.store("0123456789abcdef0123456789abcdef", "hello payload");
    EXPECT_EQ(cache.entryCount(), 1u);
    EXPECT_EQ(cache.totalBytes(), 13u);
    std::optional<std::string> got =
        cache.load("0123456789abcdef0123456789abcdef");
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, "hello payload");
    EXPECT_EQ(cache.hits(), 1u);
    std::filesystem::remove_all(dir);
}

TEST(ArtifactCache, PersistsAcrossReopen)
{
    std::string dir = tempDir("cache_reopen");
    std::string key = "00112233445566778899aabbccddeeff";
    {
        ArtifactCache cache(dir);
        cache.store(key, "survives the process");
    }
    ArtifactCache reopened(dir);
    EXPECT_EQ(reopened.entryCount(), 1u);
    std::optional<std::string> got = reopened.load(key);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, "survives the process");
    std::filesystem::remove_all(dir);
}

TEST(ArtifactCache, CorruptEntrySelfHeals)
{
    std::string dir = tempDir("cache_corrupt");
    std::string key = "ffeeddccbbaa99887766554433221100";
    ArtifactCache cache(dir);
    cache.store(key, "soon to be damaged");

    // Flip a payload byte behind the cache's back: envelope is
    // magic(4) + version(4) + size(8) + crc(4) = 20 bytes.
    flipByte(dir + "/" + key + ".obj", 25);

    EXPECT_EQ(cache.load(key), std::nullopt);
    EXPECT_EQ(cache.corruptDropped(), 1u);
    EXPECT_EQ(cache.entryCount(), 0u);
    EXPECT_FALSE(
        std::filesystem::exists(dir + "/" + key + ".obj"));
    // And the damage does not resurrect on reopen.
    ArtifactCache reopened(dir);
    EXPECT_EQ(reopened.load(key), std::nullopt);
    std::filesystem::remove_all(dir);
}

TEST(ArtifactCache, EvictsLeastRecentlyUsed)
{
    std::string dir = tempDir("cache_lru");
    // Cap of 25 payload bytes; 10-byte entries.
    ArtifactCache cache(dir, 25);
    std::string a(32, 'a'), b(32, 'b'), c(32, 'c');
    cache.store(a, "aaaaaaaaaa");
    cache.store(b, "bbbbbbbbbb");
    // Touch a so b becomes the LRU entry.
    EXPECT_TRUE(cache.load(a).has_value());
    cache.store(c, "cccccccccc"); // 30 > 25: evicts b
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_TRUE(cache.contains(a));
    EXPECT_FALSE(cache.contains(b));
    EXPECT_TRUE(cache.contains(c));
    EXPECT_LE(cache.totalBytes(), 25u);

    // An oversized store never evicts itself.
    std::string d(32, 'd');
    cache.store(d, std::string(100, 'x'));
    EXPECT_TRUE(cache.contains(d));
    std::filesystem::remove_all(dir);
}

TEST(ArtifactCache, InvalidateRemovesEntry)
{
    std::string dir = tempDir("cache_invalidate");
    std::string key = "0f1e2d3c4b5a69788796a5b4c3d2e1f0";
    ArtifactCache cache(dir);
    cache.store(key, "doomed");
    EXPECT_TRUE(cache.invalidate(key));
    EXPECT_FALSE(cache.contains(key));
    EXPECT_FALSE(cache.invalidate(key));
    EXPECT_EQ(cache.load(key), std::nullopt);
    std::filesystem::remove_all(dir);
}

// ----------------------------------------------------- profile artifact

namespace
{

/** A profiled pipeline + its artifact, from one random trace. */
ProfileArtifact
makeArtifact(AllocationPipeline &pipeline, std::uint64_t seed)
{
    MemoryTrace trace = makeRandomTrace(seed, 3000, 250);
    testhelpers::profileRun(pipeline, trace);
    return ProfileArtifact{pipeline.lastStats(),
                           pipeline.lastSelection(),
                           pipeline.graph()};
}

} // namespace

TEST(ProfileArtifactTest, RoundTripsExactly)
{
    AllocationPipeline pipeline;
    ProfileArtifact original = makeArtifact(pipeline, 101);

    std::string bytes = serializeProfileArtifact(original);
    ProfileArtifact restored;
    ASSERT_EQ(parseProfileArtifact(bytes, restored),
              ArtifactParseStatus::Ok);

    EXPECT_EQ(restored.stats.dynamicBranches(),
              original.stats.dynamicBranches());
    EXPECT_EQ(restored.stats.dynamicTaken(),
              original.stats.dynamicTaken());
    EXPECT_EQ(restored.stats.staticBranches(),
              original.stats.staticBranches());
    EXPECT_EQ(restored.stats.lastTimestamp(),
              original.stats.lastTimestamp());
    for (const auto &[pc, counts] : original.stats.table()) {
        BranchCounts rc = restored.stats.counts(pc);
        EXPECT_EQ(rc.executed, counts.executed);
        EXPECT_EQ(rc.taken, counts.taken);
    }
    EXPECT_EQ(restored.selection.selected,
              original.selection.selected);
    EXPECT_EQ(restored.selection.total_dynamic,
              original.selection.total_dynamic);
    EXPECT_EQ(restored.selection.analyzed_dynamic,
              original.selection.analyzed_dynamic);
    ASSERT_EQ(restored.graph.nodeCount(),
              original.graph.nodeCount());
    for (NodeId id = 0; id < original.graph.nodeCount(); ++id) {
        EXPECT_EQ(restored.graph.node(id).pc,
                  original.graph.node(id).pc);
        EXPECT_EQ(restored.graph.node(id).executed,
                  original.graph.node(id).executed);
    }
    EXPECT_EQ(restored.graph.edges(), original.graph.edges());

    // Canonical: serializing the restored artifact is byte-identical.
    EXPECT_EQ(serializeProfileArtifact(restored), bytes);
}

TEST(ProfileArtifactTest, StaleSchemaIsStaleNotCorrupt)
{
    AllocationPipeline pipeline;
    std::string bytes =
        serializeProfileArtifact(makeArtifact(pipeline, 103));
    // The schema version is the u32 after the 4-byte magic.
    bytes[4] = static_cast<char>(bytes[4] + 1);
    ProfileArtifact out;
    EXPECT_EQ(parseProfileArtifact(bytes, out),
              ArtifactParseStatus::Stale);
}

TEST(ProfileArtifactTest, DamageIsCorruptNeverPartial)
{
    AllocationPipeline pipeline;
    std::string bytes =
        serializeProfileArtifact(makeArtifact(pipeline, 107));

    ProfileArtifact out;
    // Bad magic.
    std::string bad_magic = bytes;
    bad_magic[0] = 'X';
    EXPECT_EQ(parseProfileArtifact(bad_magic, out),
              ArtifactParseStatus::Corrupt);
    // Truncated at several depths.
    for (std::size_t keep : {std::size_t(0), std::size_t(6),
                             std::size_t(40), bytes.size() - 1}) {
        EXPECT_EQ(parseProfileArtifact(
                      std::string_view(bytes).substr(0, keep), out),
                  ArtifactParseStatus::Corrupt)
            << "kept " << keep << " bytes";
    }
    // Trailing garbage.
    EXPECT_EQ(parseProfileArtifact(bytes + "extra", out),
              ArtifactParseStatus::Corrupt);
    // out must be untouched by all the failures above.
    EXPECT_EQ(out.graph.nodeCount(), 0u);
    EXPECT_EQ(out.stats.dynamicBranches(), 0u);
}

TEST(ProfileArtifactTest, LoadInvalidatesStaleEntries)
{
    std::string dir = tempDir("cache_stale");
    ArtifactCache cache(dir);
    AllocationPipeline pipeline;
    ProfileArtifact artifact = makeArtifact(pipeline, 109);
    std::string key = "abcdefabcdefabcdefabcdefabcdef00";

    // A valid entry loads.
    storeProfileArtifact(cache, key, artifact);
    EXPECT_TRUE(loadProfileArtifact(cache, key).has_value());

    // An entry from a different schema is dropped, not returned:
    // simulate an old writer by patching the schema byte.
    std::string stale = serializeProfileArtifact(artifact);
    stale[4] = static_cast<char>(stale[4] + 1);
    cache.store(key, stale);
    EXPECT_EQ(loadProfileArtifact(cache, key), std::nullopt);
    EXPECT_FALSE(cache.contains(key));

    // A structurally damaged entry likewise.
    cache.store(key, serializeProfileArtifact(artifact).substr(0, 30));
    EXPECT_EQ(loadProfileArtifact(cache, key), std::nullopt);
    EXPECT_FALSE(cache.contains(key));
    std::filesystem::remove_all(dir);
}

TEST(ProfileArtifactTest, ImportedProfileMatchesFreshProfile)
{
    MemoryTrace trace = makeRandomTrace(113, 4000, 300);

    AllocationPipeline fresh;
    testhelpers::profileRun(fresh, trace);

    // Round-trip the profile through serialized bytes and import it
    // into a new pipeline: the graph, the profile count, and the
    // allocations at several table sizes must all be identical.
    ProfileArtifact artifact{fresh.lastStats(), fresh.lastSelection(),
                             fresh.graph()};
    std::string bytes = serializeProfileArtifact(artifact);
    ProfileArtifact restored;
    ASSERT_EQ(parseProfileArtifact(bytes, restored),
              ArtifactParseStatus::Ok);

    AllocationPipeline imported;
    imported.importProfile(restored.stats, restored.selection,
                           restored.graph);
    EXPECT_EQ(imported.profileCount(), 1u);
    EXPECT_TRUE(imported.hasProfileData());
    ASSERT_EQ(imported.graph().nodeCount(),
              fresh.graph().nodeCount());
    EXPECT_EQ(imported.graph().edges(), fresh.graph().edges());

    for (std::uint64_t size : {64ull, 256ull, 1024ull}) {
        AllocationResult a = fresh.allocate(size);
        AllocationResult b = imported.allocate(size);
        EXPECT_EQ(a.residual_conflict, b.residual_conflict)
            << "table size " << size;
        EXPECT_EQ(a.shared_nodes, b.shared_nodes)
            << "table size " << size;
    }
    RequiredSizeResult rf = fresh.requiredSize(1024);
    RequiredSizeResult ri = imported.requiredSize(1024);
    EXPECT_EQ(rf.achieved, ri.achieved);
    EXPECT_EQ(rf.required_entries, ri.required_entries);
}

TEST(ProfileArtifactTest, ImportMergesLikeASecondProfile)
{
    MemoryTrace a = makeRandomTrace(127, 1500, 120);
    MemoryTrace b = makeRandomTrace(131, 1500, 120);

    // Reference: two fresh profile runs on one pipeline.
    AllocationPipeline reference;
    testhelpers::profileRun(reference, a);
    testhelpers::profileRun(reference, b);

    // One fresh run, then importing b's artifact must merge exactly
    // like profiling b directly (this is the ablation_profiles merged
    // pipeline's cache-hit path).
    AllocationPipeline donor;
    testhelpers::profileRun(donor, b);
    ProfileArtifact artifact{donor.lastStats(), donor.lastSelection(),
                             donor.graph()};

    AllocationPipeline merged;
    testhelpers::profileRun(merged, a);
    merged.importProfile(artifact.stats, artifact.selection,
                         artifact.graph);
    EXPECT_EQ(merged.profileCount(), 2u);
    ASSERT_EQ(merged.graph().nodeCount(),
              reference.graph().nodeCount());
    EXPECT_EQ(merged.graph().edges(), reference.graph().edges());
}

TEST(ProfileArtifactTest, ParsesUnsortedEdgesInOneSortedLoad)
{
    // 200k edges written in descending key order, one key split over
    // two records: the parser sorts, adds the duplicate up and loads
    // the canonical graph.  Loading record by record into the sorted
    // edge array would shift it once per record (O(E^2)).
    ConflictGraph graph;
    constexpr NodeId nodes = 700;
    for (NodeId v = 0; v < nodes; ++v)
        graph.restoreNode(0x400000 + 8 * v, 10, 3);
    std::vector<std::vector<ConflictGraph::Edge>> runs(1);
    for (NodeId a = 0; a < nodes && runs[0].size() < 200000; ++a)
        for (NodeId b = a + 1; b < nodes && runs[0].size() < 200000;
             ++b)
            runs[0].emplace_back(ConflictGraph::packEdge(a, b),
                                 1 + (a * 7 + b) % 50);
    graph.mergeEdges(std::move(runs));
    ASSERT_EQ(graph.edgeCount(), 200000u);
    ProfileArtifact canonical;
    canonical.graph = graph;
    std::string bytes = serializeProfileArtifact(canonical);

    // The edge section ends the artifact: a u64 count, then 16-byte
    // (key, count) records.
    const std::size_t edge_section = bytes.size() - 8 - 16 * 200000;
    std::string hostile = bytes.substr(0, edge_section);
    appendU64(hostile, 200001);
    const auto &edges = graph.edges();
    constexpr std::size_t split = 1234;
    ASSERT_GE(edges[split].second, 2u);
    for (std::size_t i = edges.size(); i-- > 0;) {
        auto [key, count] = edges[i];
        if (i == split) {
            appendU64(hostile, key);
            appendU64(hostile, 1);
            --count;
        }
        appendU64(hostile, key);
        appendU64(hostile, count);
    }

    ProfileArtifact parsed;
    ASSERT_EQ(parseProfileArtifact(hostile, parsed),
              ArtifactParseStatus::Ok);
    EXPECT_TRUE(testhelpers::edgeInvariantHolds(parsed.graph));
    EXPECT_EQ(parsed.graph.edges(), graph.edges());
    EXPECT_EQ(serializeProfileArtifact(parsed), bytes);

    // Duplicates whose counts add past 2^64 are corrupt, not a
    // wrapped (or zero) count.
    std::string overflow = bytes.substr(0, edge_section);
    appendU64(overflow, 2);
    for (std::uint64_t count : {~std::uint64_t(0), std::uint64_t(1)}) {
        appendU64(overflow, edges[split].first);
        appendU64(overflow, count);
    }
    EXPECT_EQ(parseProfileArtifact(overflow, parsed),
              ArtifactParseStatus::Corrupt);
}

// ------------------------------------------------------ block delivery

namespace
{

/**
 * Source handing a buffered trace out one onBranch() at a time, with
 * done() checked before each record: the record path that block
 * delivery must reproduce.  Range replay is TraceSource's default
 * (a RangeFilterSink over replay()).
 */
class PerRecordSource : public TraceSource
{
  public:
    explicit PerRecordSource(const MemoryTrace &trace) : _trace(trace) {}

    void
    replay(TraceSink &sink) const override
    {
        for (const BranchRecord &record : _trace.records()) {
            if (sink.done())
                break;
            sink.onBranch(record);
        }
        sink.onEnd();
    }

    std::uint64_t recordCount() const override { return _trace.size(); }

  private:
    const MemoryTrace &_trace;
};

/** Everything the analysis sinks build from one delivery of a trace. */
struct DeliveryOutputs
{
    TraceStatsCollector stats;
    TraceStatsCollector kept;
    std::uint64_t dropped = 0;

    ConflictGraph serial;
    std::uint64_t evicted = 0;
    std::uint64_t increments = 0;
    obs::BranchTelemetryMap serial_telemetry;
    obs::PhaseAccumulator serial_phase{512};

    ConflictGraph sharded;
    obs::BranchTelemetryMap sharded_telemetry;
    obs::PhaseAccumulator sharded_phase{512};

    std::vector<PredictionStats> lanes;
    std::vector<std::vector<LanePhaseBin>> bins;
    std::vector<std::unordered_set<BranchPc>> phase_pcs;
    std::vector<InterferenceCounters> probes;
};

constexpr std::size_t delivery_window = 48;

/** Lanes of the delivery comparison: three PAg kinds and gshare. */
std::vector<PredictorSpec>
deliverySpecs()
{
    return {paperBaselineSpec(), parsePredictorSpec("gshare:hist=11"),
            parsePredictorSpec("pag:bht=32"), interferenceFreeSpec()};
}

std::unique_ptr<DeliveryOutputs>
runDelivery(const TraceSource &source,
            const FrequencySelection &selection,
            const obs::PhaseTimeline &timeline)
{
    auto out = std::make_unique<DeliveryOutputs>();
    source.replay(out->stats);
    {
        FilteredSink filter(selection, out->kept);
        source.replay(filter);
        out->dropped = filter.dropped();
    }

    // Serial interleave pass behind the filter, with an evicting
    // window and both hooks on.
    InterleaveConfig config;
    config.max_window = delivery_window;
    config.telemetry = &out->serial_telemetry;
    config.phase = &out->serial_phase;
    {
        InterleaveTracker tracker(out->serial, config);
        FilteredSink filter(selection, tracker);
        source.replay(filter);
        out->evicted = tracker.evictedReentries();
        out->increments = tracker.pairIncrements();
    }
    out->serial_phase.finish();

    ShardConfig sharded;
    sharded.shards = 4;
    sharded.threads = 4;
    sharded.selection = &selection;
    sharded.interleave = config;
    sharded.interleave.telemetry = &out->sharded_telemetry;
    sharded.interleave.phase = &out->sharded_phase;
    profileTraceSharded(source, out->sharded, sharded);
    out->sharded_phase.finish();

    BatchedReplayer replayer(true);
    BatchedLaneOptions options;
    options.probe = true; // honoured by the PAg lanes only
    for (const PredictorSpec &spec : deliverySpecs())
        replayer.addLane(spec, options);
    replayer.setPhaseTimeline(&timeline);
    replayer.replay(source);
    out->lanes = replayer.allStats();
    for (std::size_t lane = 0; lane < replayer.laneCount(); ++lane) {
        out->bins.push_back(replayer.phaseBins(lane));
        const BhtInterferenceProbe *probe = replayer.probe(lane);
        out->probes.push_back(probe ? probe->counters()
                                    : InterferenceCounters{});
    }
    out->phase_pcs = replayer.phasePcs();
    return out;
}

::testing::AssertionResult
sameStats(const TraceStatsCollector &a, const TraceStatsCollector &b)
{
    if (a.dynamicBranches() != b.dynamicBranches() ||
        a.dynamicTaken() != b.dynamicTaken() ||
        a.lastTimestamp() != b.lastTimestamp() ||
        a.table().size() != b.table().size())
        return ::testing::AssertionFailure() << "totals differ";
    for (const auto &[pc, counts] : a.table()) {
        BranchCounts other = b.counts(pc);
        if (other.executed != counts.executed ||
            other.taken != counts.taken)
            return ::testing::AssertionFailure()
                   << "counts of pc " << pc << " differ";
    }
    return ::testing::AssertionSuccess();
}

::testing::AssertionResult
sameGraph(const ConflictGraph &a, const ConflictGraph &b)
{
    if (a.nodeCount() != b.nodeCount())
        return ::testing::AssertionFailure() << "node counts differ";
    for (NodeId id = 0; id < a.nodeCount(); ++id) {
        const ConflictNode &na = a.node(id);
        const ConflictNode &nb = b.node(id);
        if (na.pc != nb.pc || na.executed != nb.executed ||
            na.taken != nb.taken)
            return ::testing::AssertionFailure()
                   << "node " << id << " differs";
    }
    if (a.edges() != b.edges())
        return ::testing::AssertionFailure() << "edges differ";
    return ::testing::AssertionSuccess();
}

void
expectSameOutputs(const DeliveryOutputs &got, const DeliveryOutputs &want,
                  const std::string &path)
{
    SCOPED_TRACE(path);
    EXPECT_TRUE(sameStats(got.stats, want.stats));
    EXPECT_TRUE(sameStats(got.kept, want.kept));
    EXPECT_EQ(got.dropped, want.dropped);

    EXPECT_TRUE(sameGraph(got.serial, want.serial));
    EXPECT_EQ(got.evicted, want.evicted);
    EXPECT_EQ(got.increments, want.increments);
    EXPECT_TRUE(got.serial_telemetry == want.serial_telemetry);
    EXPECT_TRUE(got.serial_phase == want.serial_phase);
    EXPECT_TRUE(sameGraph(got.sharded, want.sharded));
    EXPECT_TRUE(sameGraph(got.sharded, want.serial));
    EXPECT_TRUE(got.sharded_telemetry == want.sharded_telemetry);
    EXPECT_TRUE(got.sharded_phase == want.sharded_phase);

    ASSERT_EQ(got.lanes.size(), want.lanes.size());
    for (std::size_t lane = 0; lane < want.lanes.size(); ++lane) {
        SCOPED_TRACE("lane " + std::to_string(lane));
        const PredictionStats &g = got.lanes[lane];
        const PredictionStats &w = want.lanes[lane];
        EXPECT_EQ(g.mispredicts.events(), w.mispredicts.events());
        EXPECT_EQ(g.mispredicts.total(), w.mispredicts.total());
        ASSERT_EQ(g.per_branch.size(), w.per_branch.size());
        for (const auto &[pc, ratio] : w.per_branch) {
            auto it = g.per_branch.find(pc);
            ASSERT_NE(it, g.per_branch.end()) << "pc " << pc;
            EXPECT_EQ(it->second.events(), ratio.events());
            EXPECT_EQ(it->second.total(), ratio.total());
        }
        ASSERT_EQ(got.bins[lane].size(), want.bins[lane].size());
        for (std::size_t p = 0; p < want.bins[lane].size(); ++p) {
            EXPECT_EQ(got.bins[lane][p].executed,
                      want.bins[lane][p].executed);
            EXPECT_EQ(got.bins[lane][p].mispredicted,
                      want.bins[lane][p].mispredicted);
            EXPECT_EQ(got.bins[lane][p].destructive,
                      want.bins[lane][p].destructive);
        }
        EXPECT_EQ(got.probes[lane].predictions,
                  want.probes[lane].predictions);
        EXPECT_EQ(got.probes[lane].destructive,
                  want.probes[lane].destructive);
        EXPECT_EQ(got.probes[lane].constructive,
                  want.probes[lane].constructive);
    }
    EXPECT_EQ(got.phase_pcs, want.phase_pcs);
}

} // namespace

TEST(BlockDelivery, BlockPathEqualsRecordPath)
{
    MemoryTrace trace = makeRandomTrace(151, 9000, 260);
    const std::vector<BranchRecord> &records = trace.records();

    // Phase boundaries inside blocks of every container block size,
    // of MemoryTrace's replay blocks and of the replayer's own
    // 4096-record blocks.
    obs::PhaseTimeline timeline;
    timeline.phases.resize(3);
    timeline.phases[0].start_ts = records[0].timestamp;
    timeline.phases[1].start_ts = records[1234].timestamp;
    timeline.phases[2].start_ts = records[4111].timestamp;

    TraceStatsCollector profile;
    trace.replay(profile);
    const FrequencySelection selection = selectByFrequency(profile, 0.8);
    ASSERT_GT(selection.total_dynamic, selection.analyzed_dynamic);

    PerRecordSource per_record(trace);
    std::unique_ptr<DeliveryOutputs> want =
        runDelivery(per_record, selection, timeline);
    ASSERT_GT(want->evicted, 0u); // the window really evicts
    ASSERT_GT(want->dropped, 0u);
    for (const std::vector<LanePhaseBin> &bins : want->bins)
        for (const LanePhaseBin &bin : bins)
            ASSERT_GT(bin.executed, 0u);

    expectSameOutputs(*runDelivery(trace, selection, timeline), *want,
                      "MemoryTrace");
    for (std::uint64_t block_records : {1u, 7u, 100u, 65536u}) {
        std::string path =
            writeV2(trace, "delivery_" + std::to_string(block_records),
                    block_records);
        BlockTraceReader reader(path);
        expectSameOutputs(*runDelivery(reader, selection, timeline),
                          *want,
                          "v2 blocks of " + std::to_string(block_records));
        std::filesystem::remove(path);
    }
}

TEST(BlockDelivery, FilteredEarlyStopsMatchRecordPath)
{
    MemoryTrace trace = makeRandomTrace(157, 3000, 120);
    TraceStatsCollector profile;
    trace.replay(profile);
    const FrequencySelection selection = selectByFrequency(profile, 0.7);
    const std::uint64_t limit = trace[1789].timestamp;

    // TruncatingSink and RangeFilterSink behind a FilteredSink: the
    // sink after them must see the same records whatever the source
    // delivers per call.
    struct Seen
    {
        std::vector<BranchRecord> truncated;
        std::vector<BranchRecord> ranged;
        std::uint64_t range_position = 0;
    };
    auto run = [&](const TraceSource &source) {
        Seen seen;
        RecordingSink truncated;
        TruncatingSink truncate(truncated, limit);
        FilteredSink filter_truncate(selection, truncate);
        source.replay(filter_truncate);
        EXPECT_TRUE(truncate.saturated());
        seen.truncated = truncated.records;

        RecordingSink ranged;
        RangeFilterSink range(ranged, 500, 1100);
        FilteredSink filter_range(selection, range);
        source.replay(filter_range);
        EXPECT_TRUE(range.done());
        seen.ranged = ranged.records;
        seen.range_position = range.position();
        return seen;
    };
    auto expectSame = [](const Seen &got, const Seen &want) {
        ASSERT_EQ(got.truncated.size(), want.truncated.size());
        for (std::size_t i = 0; i < want.truncated.size(); ++i)
            EXPECT_TRUE(sameRecord(got.truncated[i], want.truncated[i]));
        ASSERT_EQ(got.ranged.size(), want.ranged.size());
        for (std::size_t i = 0; i < want.ranged.size(); ++i)
            EXPECT_TRUE(sameRecord(got.ranged[i], want.ranged[i]));
        EXPECT_EQ(got.range_position, want.range_position);
    };

    // The record that saturates the truncation: the first kept one
    // past the limit.
    std::size_t saturating = 1790;
    while (!selection.contains(trace[saturating].pc))
        ++saturating;

    PerRecordSource per_record(trace);
    const Seen want = run(per_record);
    ASSERT_FALSE(want.truncated.empty());
    EXPECT_LE(want.truncated.back().timestamp, limit);
    EXPECT_EQ(want.ranged.size(), 600u);
    expectSame(run(trace), want);
    for (std::uint64_t block_records : {7u, 256u}) {
        SCOPED_TRACE(block_records);
        std::string path =
            writeV2(trace, "early_" + std::to_string(block_records),
                    block_records);
        BlockTraceReader reader(path);
        expectSame(run(reader), want);
        // done() is checked between blocks: the truncated replay
        // reads no block past the one that saturates it.
        BlockTraceReader fresh(path);
        RecordingSink sink;
        TruncatingSink truncate(sink, limit);
        FilteredSink filter(selection, truncate);
        fresh.replay(filter);
        EXPECT_EQ(fresh.blocksRead(), saturating / block_records + 1);
        std::filesystem::remove(path);
    }
}

TEST(BlockDelivery, ConcurrentSegmentDecodeCountEqualsSerialSum)
{
    MemoryTrace trace = makeRandomTrace(163, 20000, 300);
    std::string path = writeV2(trace, "decode_count", 1000);

    BlockTraceReader serial(path);
    std::vector<TraceSegment> serial_segments = serial.segments(4);
    ASSERT_EQ(serial_segments.size(), 4u);
    std::uint64_t serial_sum = 0;
    std::uint64_t serial_records = 0;
    for (const TraceSegment &segment : serial_segments) {
        const std::uint64_t before = serial.recordsDecoded();
        TraceStatsCollector stats;
        segment.replay(stats);
        serial_sum += serial.recordsDecoded() - before;
        serial_records += stats.dynamicBranches();
    }
    EXPECT_EQ(serial_sum, serial.recordsDecoded());
    EXPECT_EQ(serial_records, trace.size());

    BlockTraceReader shared(path);
    std::vector<TraceSegment> segments = shared.segments(4);
    std::vector<TraceStatsCollector> stats(segments.size());
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < segments.size(); ++i)
        threads.emplace_back(
            [&, i] { segments[i].replay(stats[i]); });
    for (std::thread &thread : threads)
        thread.join();
    EXPECT_EQ(shared.recordsDecoded(), serial_sum);
    EXPECT_EQ(shared.blocksRead(), serial.blocksRead());
    std::uint64_t records = 0;
    for (const TraceStatsCollector &s : stats)
        records += s.dynamicBranches();
    EXPECT_EQ(records, trace.size());
    std::filesystem::remove(path);
}
