/**
 * @file
 * Tests of the online profiling service (src/serve) and the
 * streaming ProfileSession underneath it (src/core/streaming.cc):
 *
 *  - *exactness*: a streamed session's artifact -- after any block
 *    partitioning, at any mid-stream snapshot, with bounded windows,
 *    and across spill/merge epochs -- serializes byte-identically to
 *    a batch ProfileSession over the same records, and produces the
 *    same allocation map;
 *  - *bounded memory*: a spilling session's resident bytes stay
 *    within its bound after every append;
 *  - *protocol robustness*: truncated frames, bad magic, oversized
 *    length prefixes and version mismatches poison only the stream;
 *    payload CRC damage, unknown/duplicate sessions, undecodable
 *    payloads and out-of-order timestamps are answered with typed
 *    error frames and the service keeps serving;
 *  - *isolation*: concurrent tenants streaming interleaved sessions
 *    through one service never contaminate each other's graphs, and
 *    a session whose spilled epoch was evicted fails alone;
 *  - the latency histograms fed by the service have sane quantiles.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#define BWSA_TEST_POSIX 1
#include <sys/socket.h>
#include <unistd.h>
#endif

#include "core/pipeline.hh"
#include "exec/thread_pool.hh"
#include "obs/phase_detect.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "serve/service.hh"
#include "store/artifact_cache.hh"
#include "store/profile_artifact.hh"
#include "store/wire.hh"
#include "test_helpers.hh"
#include "trace/varint.hh"
#include "util/random.hh"

using namespace bwsa;

namespace
{

/** Random trace records with strictly ascending timestamps. */
std::vector<BranchRecord>
makeRecords(std::uint64_t seed, std::size_t count,
            std::uint64_t distinct = 200)
{
    Pcg32 rng(seed);
    std::vector<BranchRecord> records;
    records.reserve(count);
    std::uint64_t ts = 0;
    for (std::size_t i = 0; i < count; ++i) {
        BranchRecord r;
        r.pc = 0x400000 + 8ull * rng.nextBounded(
                              static_cast<std::uint32_t>(distinct));
        ts += 1 + rng.nextBounded(16);
        r.timestamp = ts;
        r.taken = rng.nextBool(0.6);
        records.push_back(r);
    }
    return records;
}

/** Streaming-legal pipeline config (full coverage, single pass). */
PipelineConfig
streamingConfig(std::size_t max_window = 0)
{
    PipelineConfig config;
    config.coverage = 1.0;
    config.max_static = 0;
    if (max_window != 0)
        config.interleave.max_window = max_window;
    return config;
}

/** Batch ProfileSession artifact over @p records, serialized. */
std::string
batchBytes(const std::vector<BranchRecord> &records,
           const PipelineConfig &config)
{
    AllocationPipeline pipeline(config);
    ProfileSession session(pipeline);
    MemoryTrace trace;
    for (const BranchRecord &r : records)
        trace.onBranch(r);
    trace.onEnd();
    session.addStats(trace);
    session.commit();
    session.addInterleave(trace);
    session.finish();
    store::ProfileArtifact artifact{pipeline.lastStats(),
                                    pipeline.lastSelection(),
                                    pipeline.graph()};
    return store::serializeProfileArtifact(artifact);
}

/** Stream @p records in @p block_records chunks; serialized finish. */
std::string
streamedBytes(const std::vector<BranchRecord> &records,
              StreamingSessionConfig config,
              std::size_t block_records)
{
    StreamingProfileSession session(std::move(config));
    for (std::size_t off = 0; off < records.size();
         off += block_records) {
        std::size_t n =
            std::min(block_records, records.size() - off);
        session.appendBlock(records.data() + off, n);
    }
    return store::serializeProfileArtifact(session.finish());
}

std::filesystem::path
tempDir(const std::string &tag)
{
    auto dir = std::filesystem::temp_directory_path() /
               ("bwsa_serve_test_" + tag);
    std::filesystem::remove_all(dir);
    return dir;
}

} // namespace

// ---------------------------------------------------------------
// Streaming exactness

TEST(StreamingSession, ByteIdenticalAcrossBlockSizes)
{
    std::vector<BranchRecord> records = makeRecords(7, 5000);
    std::string expected = batchBytes(records, streamingConfig());
    for (std::size_t block : {std::size_t(1), std::size_t(7),
                              std::size_t(64), std::size_t(999),
                              records.size()}) {
        EXPECT_EQ(streamedBytes(records, {}, block), expected)
            << "block size " << block;
    }
}

TEST(StreamingSession, ByteIdenticalWithBoundedWindow)
{
    std::vector<BranchRecord> records = makeRecords(11, 4000, 500);
    for (std::size_t window : {std::size_t(2), std::size_t(5),
                               std::size_t(16)}) {
        std::string expected =
            batchBytes(records, streamingConfig(window));
        StreamingSessionConfig config;
        config.max_window = window;
        EXPECT_EQ(streamedBytes(records, config, 123), expected)
            << "window " << window;
    }
}

TEST(StreamingSession, ByteIdenticalAcrossTheRowFloor)
{
    // The growing 300-branch population of testhelpers::oracleTrace
    // under windows below the row-form floor's reach (4096), across
    // it (24, 64) and without one (0): blocks of 1, 7 and 4096
    // records must give the batch bytes.
    std::vector<BranchRecord> records =
        testhelpers::oracleTrace(9, 6000, 300);
    for (std::size_t window : {std::size_t(0), std::size_t(24),
                               std::size_t(64), std::size_t(4096)}) {
        PipelineConfig batch = streamingConfig();
        batch.interleave.max_window = window;
        std::string expected = batchBytes(records, batch);
        StreamingSessionConfig config;
        config.max_window = window;
        for (std::size_t block : {std::size_t(1), std::size_t(7),
                                  std::size_t(4096)})
            EXPECT_EQ(streamedBytes(records, config, block), expected)
                << "window " << window << " block " << block;
    }
}

TEST(StreamingSession, MidStreamSnapshotEqualsBatchPrefix)
{
    std::vector<BranchRecord> records = makeRecords(13, 3000);
    StreamingProfileSession session(StreamingSessionConfig{});

    const std::size_t block = 700;
    std::size_t streamed = 0;
    while (streamed < records.size()) {
        std::size_t n = std::min(block, records.size() - streamed);
        session.appendBlock(records.data() + streamed, n);
        streamed += n;

        std::vector<BranchRecord> prefix(records.begin(),
                                         records.begin() + streamed);
        EXPECT_EQ(store::serializeProfileArtifact(session.snapshot()),
                  batchBytes(prefix, streamingConfig()))
            << "prefix of " << streamed << " records";
    }
    EXPECT_EQ(session.recordCount(), records.size());
}

TEST(StreamingSession, AllocationMapMatchesBatch)
{
    std::vector<BranchRecord> records = makeRecords(17, 6000, 600);

    AllocationPipeline pipeline(streamingConfig());
    ProfileSession batch(pipeline);
    MemoryTrace trace;
    for (const BranchRecord &r : records)
        trace.onBranch(r);
    trace.onEnd();
    batch.addStats(trace);
    batch.commit();
    batch.addInterleave(trace);
    batch.finish();
    AllocationResult expected = pipeline.allocate(128);

    StreamingProfileSession session(StreamingSessionConfig{});
    session.appendBlock(records);
    AllocationResult got =
        allocateBranches(session.snapshot().graph, 128, {});

    EXPECT_EQ(got.assignment, expected.assignment);
    EXPECT_EQ(got.residual_conflict, expected.residual_conflict);
    EXPECT_EQ(got.shared_nodes, expected.shared_nodes);
}

TEST(StreamingSession, SpillingPreservesExactness)
{
    std::vector<BranchRecord> records = makeRecords(19, 8000, 800);
    std::string expected = batchBytes(records, streamingConfig());

    auto dir = tempDir("spill");
    store::ArtifactCache cache(dir.string());

    StreamingSessionConfig config;
    config.max_resident_bytes = 16 * 1024; // force frequent spills
    config.spill_cache = &cache;
    config.spill_scope = "t0/s0";

    StreamingProfileSession session(config);
    for (std::size_t off = 0; off < records.size(); off += 512) {
        std::size_t n = std::min(std::size_t(512),
                                 records.size() - off);
        session.appendBlock(records.data() + off, n);
    }
    EXPECT_GT(session.spilledEpochs(), 0u);
    EXPECT_EQ(store::serializeProfileArtifact(session.finish()),
              expected);
    // finish() dropped the spilled epochs from the cache.
    EXPECT_EQ(cache.entryCount(), 0u);

    // Spill bound x window x uneven blocks, with a snapshot after
    // every append: each must equal the batch artifact of its prefix.
    const std::size_t blocks[] = {1, 333, 1000, 7, 2500};
    for (std::size_t window : {std::size_t(0), std::size_t(2),
                               std::size_t(16)}) {
        PipelineConfig pipeline = streamingConfig();
        pipeline.interleave.max_window = window; // 0 = unbounded
        for (std::uint64_t bound : {std::uint64_t(0),
                                    std::uint64_t(4 * 1024),
                                    std::uint64_t(32 * 1024)}) {
            StreamingSessionConfig matrix;
            matrix.max_window = window;
            if (bound != 0) {
                matrix.max_resident_bytes = bound;
                matrix.spill_cache = &cache;
                matrix.spill_scope = "t0/w" + std::to_string(window) +
                                     "b" + std::to_string(bound);
            }
            StreamingProfileSession streamed(matrix);
            std::size_t off = 0;
            for (std::size_t i = 0; off < records.size(); ++i) {
                std::size_t n = i < std::size(blocks)
                                    ? blocks[i]
                                    : records.size() - off;
                streamed.appendBlock(records.data() + off, n);
                off += n;
                std::vector<BranchRecord> prefix(
                    records.begin(), records.begin() + off);
                EXPECT_EQ(store::serializeProfileArtifact(
                              streamed.snapshot()),
                          batchBytes(prefix, pipeline))
                    << "window " << window << ", bound " << bound
                    << ", prefix of " << off << " records";
            }
            if (bound == 4 * 1024) {
                EXPECT_GT(streamed.spilledEpochs(), 1u)
                    << "window " << window;
            }
            EXPECT_EQ(store::serializeProfileArtifact(
                          streamed.finish()),
                      batchBytes(records, pipeline));
        }
    }
    EXPECT_EQ(cache.entryCount(), 0u);
    std::filesystem::remove_all(dir);
}

TEST(StreamingSession, SnapshotCadenceCannotChangeAByte)
{
    // The graph is built only when read, so when (and whether) it is
    // read must not show in any artifact: snapshots after every
    // block, every 4th block, or never, spilling or not.
    std::vector<BranchRecord> records = makeRecords(29, 7000, 600);
    const std::string expected = batchBytes(records, streamingConfig());
    auto dir = tempDir("cadence");
    store::ArtifactCache cache(dir.string());

    for (std::size_t every : {std::size_t(1), std::size_t(4),
                              std::size_t(0)}) {
        for (std::uint64_t bound : {std::uint64_t(0),
                                    std::uint64_t(4 * 1024),
                                    std::uint64_t(32 * 1024)}) {
            SCOPED_TRACE("snapshot every " + std::to_string(every) +
                         " blocks, bound " + std::to_string(bound));
            StreamingSessionConfig config;
            if (bound != 0) {
                config.max_resident_bytes = bound;
                config.spill_cache = &cache;
                config.spill_scope = "t0/e" + std::to_string(every) +
                                     "b" + std::to_string(bound);
            }
            StreamingProfileSession session(config);
            std::size_t blocks = 0;
            for (std::size_t off = 0; off < records.size(); off += 500) {
                session.appendBlock(
                    records.data() + off,
                    std::min(std::size_t(500), records.size() - off));
                if (every == 0 || ++blocks % every != 0)
                    continue;
                std::string first =
                    store::serializeProfileArtifact(session.snapshot());
                EXPECT_EQ(store::serializeProfileArtifact(
                              session.snapshot()),
                          first)
                    << "back-to-back snapshots after " << blocks
                    << " blocks";
            }
            if (bound == 4 * 1024) {
                EXPECT_GT(session.spilledEpochs(), 1u);
            }
            EXPECT_EQ(store::serializeProfileArtifact(session.finish()),
                      expected);
        }
    }
    EXPECT_EQ(cache.entryCount(), 0u);
    std::filesystem::remove_all(dir);
}

TEST(StreamingSession, ResidentBytesStayWithinBound)
{
    std::vector<BranchRecord> records = makeRecords(37, 60000, 800);
    auto dir = tempDir("bound");
    store::ArtifactCache cache(dir.string());

    StreamingSessionConfig config;
    config.max_resident_bytes = 512 * 1024;
    config.spill_cache = &cache;
    config.spill_scope = "t0/bound";

    StreamingProfileSession session(config);
    for (std::size_t off = 0; off < records.size(); off += 1024) {
        std::size_t n = std::min(std::size_t(1024),
                                 records.size() - off);
        session.appendBlock(records.data() + off, n);
        ASSERT_LE(session.residentBytes(), config.max_resident_bytes)
            << "after " << off + n << " records";
    }
    EXPECT_GT(session.spilledEpochs(), 0u);
    EXPECT_EQ(store::serializeProfileArtifact(session.finish()),
              batchBytes(records, streamingConfig()));
    std::filesystem::remove_all(dir);

    // Unbounded, with no snapshot: the counts stay in the tracker's
    // rows between reads, and residentBytes() charges them.  The
    // statistics, slot table and per-slot arrays of 800 branches are
    // well under the bound above, so only the rows can push the
    // session past it.
    StreamingProfileSession unbounded(StreamingSessionConfig{});
    unbounded.appendBlock(records.data(), 1024);
    const std::uint64_t first = unbounded.residentBytes();
    for (std::size_t off = 1024; off < 8 * 1024; off += 1024)
        unbounded.appendBlock(records.data() + off, 1024);
    EXPECT_GT(unbounded.residentBytes(), first);
    EXPECT_GT(unbounded.residentBytes(), config.max_resident_bytes);
}

TEST(StreamingSession, AbandonedSessionCleansUpSpills)
{
    auto dir = tempDir("abandon");
    {
        store::ArtifactCache cache(dir.string());
        StreamingSessionConfig config;
        config.max_resident_bytes = 8 * 1024;
        config.spill_cache = &cache;
        config.spill_scope = "t0/s1";
        {
            StreamingProfileSession session(config);
            std::vector<BranchRecord> records =
                makeRecords(23, 6000, 800);
            session.appendBlock(records);
            EXPECT_GT(session.spilledEpochs(), 0u);
            // ... abandoned without finish().
        }
        EXPECT_EQ(cache.entryCount(), 0u);
    }
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------
// Frame codec

TEST(ServeProtocol, FrameRoundTrip)
{
    serve::Frame frame;
    frame.type = serve::FrameType::Append;
    frame.session = 42;
    frame.payload = "hello payload";

    serve::FrameReader reader;
    std::string bytes = serve::encodeFrame(frame);
    ASSERT_TRUE(reader.feed(bytes.data(), bytes.size()));

    serve::Frame out;
    ASSERT_TRUE(reader.next(out));
    EXPECT_EQ(out.type, serve::FrameType::Append);
    EXPECT_EQ(out.session, 42u);
    EXPECT_EQ(out.payload, frame.payload);
    EXPECT_TRUE(out.crc_ok);
    EXPECT_FALSE(reader.next(out));
}

TEST(ServeProtocol, TruncatedFrameStaysPending)
{
    serve::Frame frame;
    frame.type = serve::FrameType::Begin;
    frame.session = 1;
    std::string bytes = serve::encodeFrame(frame);

    serve::FrameReader reader;
    // Feed all but the last byte: no frame, no failure, bytes pend.
    ASSERT_TRUE(reader.feed(bytes.data(), bytes.size() - 1));
    serve::Frame out;
    EXPECT_FALSE(reader.next(out));
    EXPECT_FALSE(reader.failed());
    EXPECT_GT(reader.pendingBytes(), 0u);
    // The final byte completes it.
    ASSERT_TRUE(reader.feed(bytes.data() + bytes.size() - 1, 1));
    EXPECT_TRUE(reader.next(out));
    EXPECT_EQ(reader.pendingBytes(), 0u);
}

TEST(ServeProtocol, BadMagicPoisonsStream)
{
    serve::Frame begin;
    begin.type = serve::FrameType::Begin;
    std::string bytes = serve::encodeFrame(begin);
    bytes[0] = 'X';
    serve::FrameReader reader;
    EXPECT_FALSE(reader.feed(bytes.data(), bytes.size()));
    EXPECT_TRUE(reader.failed());
    EXPECT_NE(reader.error().find("magic"), std::string::npos);
}

TEST(ServeProtocol, VersionMismatchPoisonsStream)
{
    serve::Frame begin;
    begin.type = serve::FrameType::Begin;
    std::string bytes = serve::encodeFrame(begin);
    bytes[4] = 99; // protocol version field
    serve::FrameReader reader;
    EXPECT_FALSE(reader.feed(bytes.data(), bytes.size()));
    EXPECT_TRUE(reader.failed());
    EXPECT_NE(reader.error().find("version"), std::string::npos);
}

TEST(ServeProtocol, OversizedLengthPoisonsStream)
{
    serve::Frame begin;
    begin.type = serve::FrameType::Begin;
    std::string bytes = serve::encodeFrame(begin);
    // Payload length field sits at offset 20; blow it past the cap.
    bytes[20] = bytes[21] = bytes[22] = bytes[23] = '\xff';
    serve::FrameReader reader;
    EXPECT_FALSE(reader.feed(bytes.data(), bytes.size()));
    EXPECT_TRUE(reader.failed());
    EXPECT_NE(reader.error().find("oversized"), std::string::npos);
}

TEST(ServeProtocol, CorruptPayloadFlagsCrc)
{
    serve::Frame frame;
    frame.type = serve::FrameType::Append;
    frame.payload = "some payload bytes";
    std::string bytes = serve::encodeFrame(frame);
    bytes[serve::frame_header_bytes] ^= 0x40; // first payload byte

    serve::FrameReader reader;
    ASSERT_TRUE(reader.feed(bytes.data(), bytes.size()));
    serve::Frame out;
    ASSERT_TRUE(reader.next(out));
    EXPECT_FALSE(out.crc_ok);
}

TEST(ServeProtocol, AppendPayloadRoundTrip)
{
    std::vector<BranchRecord> records = makeRecords(29, 500);
    std::string payload =
        serve::encodeAppendPayload(records.data(), records.size());

    std::vector<BranchRecord> out;
    std::string error;
    ASSERT_TRUE(serve::decodeAppendPayload(payload, out, error))
        << error;
    ASSERT_EQ(out.size(), records.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(out[i].pc, records[i].pc);
        EXPECT_EQ(out[i].timestamp, records[i].timestamp);
        EXPECT_EQ(out[i].taken, records[i].taken);
    }

    // Truncated and padded payloads are rejected with a reason.
    std::string short_payload =
        payload.substr(0, payload.size() - 1);
    EXPECT_FALSE(
        serve::decodeAppendPayload(short_payload, out, error));
    std::string long_payload = payload + "x";
    EXPECT_FALSE(
        serve::decodeAppendPayload(long_payload, out, error));
}

// ---------------------------------------------------------------
// Service semantics

namespace
{

serve::Frame
makeRequest(serve::FrameType type, std::uint64_t session,
            std::string payload = {})
{
    serve::Frame frame;
    frame.type = type;
    frame.session = session;
    frame.payload = std::move(payload);
    return frame;
}

} // namespace

TEST(ProfileService, RequestErrorsAreTypedAndSurvivable)
{
    serve::ProfileService service(serve::ServiceConfig{});
    const std::uint64_t tenant = 1;

    // Append to a session that does not exist.
    std::vector<BranchRecord> records = makeRecords(31, 100);
    serve::Frame response = service.handle(
        tenant,
        makeRequest(serve::FrameType::Append, 5,
                    serve::encodeAppendPayload(records.data(),
                                               records.size())));
    EXPECT_EQ(response.status, serve::FrameStatus::UnknownSession);

    // Open it; a second Begin is a duplicate.
    EXPECT_EQ(service
                  .handle(tenant,
                          makeRequest(serve::FrameType::Begin, 5))
                  .status,
              serve::FrameStatus::Ok);
    EXPECT_EQ(service
                  .handle(tenant,
                          makeRequest(serve::FrameType::Begin, 5))
                  .status,
              serve::FrameStatus::DuplicateSession);

    // A frame whose payload failed its CRC is answered, not fatal.
    serve::Frame damaged = makeRequest(
        serve::FrameType::Append, 5,
        serve::encodeAppendPayload(records.data(), records.size()));
    damaged.crc_ok = false;
    EXPECT_EQ(service.handle(tenant, damaged).status,
              serve::FrameStatus::BadCrc);

    // Garbage payload.
    EXPECT_EQ(service
                  .handle(tenant,
                          makeRequest(serve::FrameType::Append, 5,
                                      "not a block"))
                  .status,
              serve::FrameStatus::BadPayload);

    // Valid ingest still works after all of the above.
    EXPECT_EQ(
        service
            .handle(tenant,
                    makeRequest(serve::FrameType::Append, 5,
                                serve::encodeAppendPayload(
                                    records.data(), records.size())))
            .status,
        serve::FrameStatus::Ok);

    // Re-sending the same block now violates monotonicity.
    EXPECT_EQ(
        service
            .handle(tenant,
                    makeRequest(serve::FrameType::Append, 5,
                                serve::encodeAppendPayload(
                                    records.data(), records.size())))
            .status,
        serve::FrameStatus::OutOfOrder);

    // The session is intact: Finish returns the valid profile.
    serve::Frame finish = service.handle(
        tenant, makeRequest(serve::FrameType::Finish, 5));
    EXPECT_EQ(finish.status, serve::FrameStatus::Ok);
    EXPECT_EQ(finish.payload,
              batchBytes(records, streamingConfig()));
    EXPECT_EQ(service.sessionCount(), 0u);
}

TEST(ProfileService, HelloRejectsVersionSkew)
{
    serve::ProfileService service(serve::ServiceConfig{});
    std::string payload;
    appendU32(payload, store::block_trace_version + 1);
    EXPECT_EQ(service
                  .handle(1, makeRequest(serve::FrameType::Hello, 0,
                                         payload))
                  .status,
              serve::FrameStatus::BadVersion);

    payload.clear();
    appendU32(payload, store::block_trace_version);
    EXPECT_EQ(service
                  .handle(1, makeRequest(serve::FrameType::Hello, 0,
                                         payload))
                  .status,
              serve::FrameStatus::Ok);
}

TEST(ProfileService, TenantsAreIsolated)
{
    serve::ProfileService service(serve::ServiceConfig{});
    std::vector<BranchRecord> a = makeRecords(37, 2000, 100);
    std::vector<BranchRecord> b = makeRecords(41, 2000, 100);

    // Same session id 9 on two tenants, different traces.
    ASSERT_EQ(service.handle(1, makeRequest(serve::FrameType::Begin, 9))
                  .status,
              serve::FrameStatus::Ok);
    ASSERT_EQ(service.handle(2, makeRequest(serve::FrameType::Begin, 9))
                  .status,
              serve::FrameStatus::Ok);
    ASSERT_EQ(
        service
            .handle(1, makeRequest(serve::FrameType::Append, 9,
                                   serve::encodeAppendPayload(
                                       a.data(), a.size())))
            .status,
        serve::FrameStatus::Ok);
    ASSERT_EQ(
        service
            .handle(2, makeRequest(serve::FrameType::Append, 9,
                                   serve::encodeAppendPayload(
                                       b.data(), b.size())))
            .status,
        serve::FrameStatus::Ok);

    EXPECT_EQ(service.handle(1, makeRequest(serve::FrameType::Finish, 9))
                  .payload,
              batchBytes(a, streamingConfig()));
    EXPECT_EQ(service.handle(2, makeRequest(serve::FrameType::Finish, 9))
                  .payload,
              batchBytes(b, streamingConfig()));

    // Aborting one tenant never touches another's sessions.
    ASSERT_EQ(service.handle(3, makeRequest(serve::FrameType::Begin, 1))
                  .status,
              serve::FrameStatus::Ok);
    ASSERT_EQ(service.handle(4, makeRequest(serve::FrameType::Begin, 1))
                  .status,
              serve::FrameStatus::Ok);
    service.abortTenant(3);
    EXPECT_EQ(service.sessionCount(), 1u);
    EXPECT_EQ(service.handle(4, makeRequest(serve::FrameType::Finish, 1))
                  .status,
              serve::FrameStatus::Ok);
}

TEST(ProfileService, ConcurrentSessionsStayExact)
{
    serve::ProfileService service(serve::ServiceConfig{});
    const unsigned tenants = 6;
    const std::uint64_t per_tenant = 3;

    std::vector<std::vector<BranchRecord>> traces;
    for (unsigned t = 0; t < tenants; ++t)
        traces.push_back(makeRecords(100 + t, 3000, 150));

    std::vector<int> bad(tenants, 0);
    exec::ThreadPool pool(tenants);
    for (unsigned t = 0; t < tenants; ++t) {
        pool.submit([&, t](unsigned) {
            serve::LoopbackChannel channel(service, t);
            serve::ServeClient client(channel);
            ASSERT_TRUE(client.hello());
            const std::vector<BranchRecord> &records = traces[t];
            for (std::uint64_t s = 0; s < per_tenant; ++s)
                ASSERT_TRUE(client.begin(s));
            // Interleave this tenant's sessions block by block.
            const std::size_t block = 577;
            for (std::size_t off = 0; off < records.size();
                 off += block) {
                std::size_t n =
                    std::min(block, records.size() - off);
                for (std::uint64_t s = 0; s < per_tenant; ++s)
                    ASSERT_TRUE(client.append(
                        s, records.data() + off, n));
            }
            std::string expected =
                batchBytes(records, streamingConfig());
            for (std::uint64_t s = 0; s < per_tenant; ++s) {
                std::optional<std::string> bytes =
                    client.finishBytes(s);
                if (!bytes || *bytes != expected)
                    ++bad[t];
            }
        });
    }
    pool.wait();
    for (unsigned t = 0; t < tenants; ++t)
        EXPECT_EQ(bad[t], 0) << "tenant " << t;
    EXPECT_EQ(service.sessionCount(), 0u);
}

TEST(ProfileService, EvictedSpillEpochFailsOnlyItsSession)
{
    // A 1-byte cap keeps only the newest spilled epoch, so a session
    // that spilled twice has lost its first epoch.
    auto dir = tempDir("evict");
    store::ArtifactCache cache(dir.string(), 1);
    serve::ServiceConfig config;
    config.max_session_bytes = 64 * 1024;
    config.spill_cache = &cache;
    serve::ProfileService service(config);

    // Tenant 1 outgrows its bound; tenant 2's 30 branches fit in it.
    std::vector<BranchRecord> starved = makeRecords(43, 8000, 800);
    std::vector<BranchRecord> within = makeRecords(47, 4000, 30);
    ASSERT_EQ(service.handle(1, makeRequest(serve::FrameType::Begin, 3))
                  .status,
              serve::FrameStatus::Ok);
    ASSERT_EQ(service.handle(2, makeRequest(serve::FrameType::Begin, 3))
                  .status,
              serve::FrameStatus::Ok);
    auto append = [&](std::uint64_t tenant,
                      const std::vector<BranchRecord> &records,
                      std::size_t off, std::size_t n) {
        return service
            .handle(tenant,
                    makeRequest(serve::FrameType::Append, 3,
                                serve::encodeAppendPayload(
                                    records.data() + off, n)))
            .status;
    };
    for (std::size_t i = 0; i < 4; ++i) {
        ASSERT_EQ(append(1, starved, i * 2000, 2000),
                  serve::FrameStatus::Ok);
        ASSERT_EQ(append(2, within, i * 500, 500),
                  serve::FrameStatus::Ok);
    }
    EXPECT_GT(cache.evictions(), 0u);

    serve::Frame snapshot = service.handle(
        1, makeRequest(serve::FrameType::Snapshot, 3));
    EXPECT_EQ(snapshot.status, serve::FrameStatus::Internal);
    EXPECT_NE(snapshot.payload.find("evicted"), std::string::npos);
    EXPECT_EQ(service.handle(1, makeRequest(serve::FrameType::Finish, 3))
                  .status,
              serve::FrameStatus::Internal);

    // The service keeps serving the other tenant, exactly.
    for (std::size_t i = 4; i < 8; ++i)
        ASSERT_EQ(append(2, within, i * 500, 500),
                  serve::FrameStatus::Ok);
    serve::Frame finish = service.handle(
        2, makeRequest(serve::FrameType::Finish, 3));
    EXPECT_EQ(finish.status, serve::FrameStatus::Ok);
    EXPECT_EQ(finish.payload, batchBytes(within, streamingConfig()));

    // The failed session stays open until its tenant goes away.
    EXPECT_EQ(service.sessionCount(), 1u);
    service.abortTenant(1);
    EXPECT_EQ(service.sessionCount(), 0u);
    EXPECT_EQ(cache.entryCount(), 0u);
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------
// Stream transport

#ifdef BWSA_TEST_POSIX

TEST(ServeConnection, FullSessionOverSocketpair)
{
    int fds[2];
    ASSERT_EQ(
        ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);

    serve::ProfileService service(serve::ServiceConfig{});
    std::thread server([&] {
        serve::serveConnection(service, 7, fds[1], fds[1]);
        ::close(fds[1]);
    });

    std::vector<BranchRecord> records = makeRecords(53, 2500);
    {
        serve::FdChannel channel(fds[0], fds[0]);
        serve::ServeClient client(channel);
        EXPECT_TRUE(client.hello());
        EXPECT_TRUE(client.begin(3));
        EXPECT_TRUE(client.append(3, records));
        std::optional<std::string> bytes = client.finishBytes(3);
        ASSERT_TRUE(bytes.has_value());
        EXPECT_EQ(*bytes, batchBytes(records, streamingConfig()));
        // FdChannel's destructor closes fds[0]; the server sees EOF.
    }
    server.join();
}

TEST(ServeConnection, StreamGarbageDropsOnlyThatClient)
{
    int fds[2];
    ASSERT_EQ(
        ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);

    serve::ProfileService service(serve::ServiceConfig{});
    // A survivor session on another tenant.
    ASSERT_EQ(service.handle(99, makeRequest(serve::FrameType::Begin, 1))
                  .status,
              serve::FrameStatus::Ok);

    bool clean = true;
    std::thread server([&] {
        clean = serve::serveConnection(service, 7, fds[1], fds[1]);
        ::close(fds[1]);
    });

    const char garbage[] = "this is not a BWSF frame at all.........";
    ASSERT_GT(::write(fds[0], garbage, sizeof(garbage)), 0);
    ::close(fds[0]);
    server.join();

    EXPECT_FALSE(clean);
    // The garbage tenant is gone; the survivor still finishes.
    EXPECT_EQ(service.sessionCount(), 1u);
    EXPECT_EQ(service.handle(99, makeRequest(serve::FrameType::Finish, 1))
                  .status,
              serve::FrameStatus::Ok);
}

#endif // BWSA_TEST_POSIX

// ---------------------------------------------------------------
// Phase events

namespace
{

/**
 * A trace with @p phase_count regions of @p windows_each windows,
 * each region on its own disjoint PC set (full turnover at every
 * region change, none inside).  One record per timestamp unit.
 */
std::vector<BranchRecord>
makePhasedRecords(std::size_t phase_count, std::size_t windows_each,
                  std::uint64_t interval, std::uint32_t pool = 16)
{
    Pcg32 rng(97);
    std::vector<BranchRecord> records;
    records.reserve(phase_count * windows_each * interval);
    std::uint64_t ts = 0;
    for (std::size_t p = 0; p < phase_count; ++p)
        for (std::size_t w = 0; w < windows_each; ++w)
            for (std::uint64_t i = 0; i < interval; ++i) {
                BranchRecord r;
                r.pc = 0x10000ull * (p + 1) +
                       8ull * rng.nextBounded(pool);
                r.timestamp = ts++;
                r.taken = rng.nextBool(0.5);
                records.push_back(r);
            }
    return records;
}

/** The serial phase detector's event stream over @p records. */
std::vector<serve::PhaseEventInfo>
serialPhaseEvents(const std::vector<BranchRecord> &records,
                  std::uint64_t interval,
                  const obs::PhaseDetectorConfig &config)
{
    obs::PhaseAccumulator accumulator(interval);
    for (const BranchRecord &record : records)
        accumulator.sample(record.pc, record.timestamp);
    accumulator.finish();
    obs::PhaseTimeline timeline =
        obs::detectPhases(accumulator, config);
    std::vector<serve::PhaseEventInfo> events;
    for (std::size_t i = 1; i < timeline.phases.size(); ++i)
        events.push_back({i, timeline.phases[i].start_ts,
                          timeline.phases[i - 1].start_ts,
                          timeline.phases[i].boundary_similarity});
    return events;
}

} // namespace

TEST(ServeProtocol, PhaseEventPayloadRoundTrip)
{
    serve::PhaseEventInfo event;
    event.index = 3;
    event.start_ts = 4096;
    event.prev_start_ts = 1024;
    event.similarity = 0.12345678901234567; // must survive bit-exact

    std::string payload = serve::encodePhaseEventPayload(event);
    serve::PhaseEventInfo out;
    std::string error;
    ASSERT_TRUE(serve::decodePhaseEventPayload(payload, out, error))
        << error;
    EXPECT_EQ(out, event);

    // Strict length: truncated and padded payloads are rejected.
    EXPECT_FALSE(serve::decodePhaseEventPayload(
        payload.substr(0, payload.size() - 1), out, error));
    EXPECT_FALSE(serve::decodePhaseEventPayload(payload + "x", out,
                                                error));
}

TEST(ProfileService, ClientSentPhaseEventIsRejected)
{
    // PhaseEvent is a server-push notification, never a request.
    serve::ProfileService service(serve::ServiceConfig{});
    EXPECT_EQ(
        service
            .handle(1, makeRequest(serve::FrameType::PhaseEvent, 0))
            .status,
        serve::FrameStatus::BadPayload);
}

TEST(ProfileService, LivePhaseEventsMatchSerialDetector)
{
    const std::uint64_t interval = 128;
    serve::ServiceConfig service_config;
    obs::PhaseDetectorConfig phase_config =
        service_config.phase_config;

    std::vector<BranchRecord> records =
        makePhasedRecords(4, 6, interval);
    std::vector<serve::PhaseEventInfo> expected =
        serialPhaseEvents(records, interval, phase_config);
    ASSERT_GE(expected.size(), 3u); // the trace really is phased

    // The event stream is identical for any block partitioning,
    // including blocks that split windows and phases.
    for (std::size_t block : {std::size_t(77), std::size_t(512),
                              std::size_t(1000), records.size()}) {
        serve::ServiceConfig config_copy = service_config;
        serve::ProfileService service(std::move(config_copy));
        serve::LoopbackChannel channel(service, 1);
        serve::ServeClient client(channel);
        ASSERT_TRUE(client.begin(5, 0, interval));

        std::vector<serve::PhaseEventInfo> live;
        auto drain = [&] {
            for (auto &[session, event] : client.takePhaseEvents()) {
                EXPECT_EQ(session, 5u);
                live.push_back(event);
            }
        };
        for (std::size_t off = 0; off < records.size();
             off += block) {
            std::size_t n =
                std::min(block, records.size() - off);
            ASSERT_TRUE(client.append(5, records.data() + off, n));
            drain();
        }
        // Finish flushes the tail window; a boundary landing there
        // is pushed before the Finish response.
        ASSERT_TRUE(client.finishBytes(5).has_value());
        drain();
        EXPECT_EQ(live, expected) << "block size " << block;
    }
}

TEST(ProfileService, SessionsWithoutPhaseIntervalPushNoEvents)
{
    serve::ProfileService service(serve::ServiceConfig{});
    serve::LoopbackChannel channel(service, 1);
    serve::ServeClient client(channel);
    std::vector<BranchRecord> records = makePhasedRecords(3, 5, 64);
    ASSERT_TRUE(client.begin(1)); // phase_interval defaults to 0
    ASSERT_TRUE(client.append(1, records));
    ASSERT_TRUE(client.finishBytes(1).has_value());
    EXPECT_TRUE(client.takePhaseEvents().empty());
    EXPECT_EQ(client.pendingPhaseEvents(), 0u);
}

// ---------------------------------------------------------------
// Latency plumbing

TEST(LatencyMetrics, BoundsAndQuantilesAreSane)
{
    std::vector<std::uint64_t> bounds =
        obs::MetricsRegistry::latencyBoundsNs();
    ASSERT_GE(bounds.size(), 20u);
    EXPECT_EQ(bounds.front(), 1000u);
    EXPECT_EQ(bounds.back(), 10'000'000'000ull);
    for (std::size_t i = 1; i < bounds.size(); ++i)
        EXPECT_GT(bounds[i], bounds[i - 1]);

    obs::MetricsRegistry registry;
    obs::HistogramMetric h =
        registry.histogram("test.latency", bounds);
    // 1000 observations spread across two decades.
    for (int i = 0; i < 1000; ++i)
        h.observe(10'000 + static_cast<std::uint64_t>(i) * 1000);
    obs::MetricsSnapshot snapshot = registry.snapshot();
    const obs::SeriesSnapshot *series = snapshot.find("test.latency");
    ASSERT_NE(series, nullptr);
    double p50 = series->histogram.quantile(0.5);
    double p99 = series->histogram.quantile(0.99);
    EXPECT_GT(p50, 100'000.0);
    EXPECT_LT(p50, 1'000'000.0);
    EXPECT_GE(p99, p50);
    EXPECT_LE(p99, 1'800'000.0);
    // Quantiles of an empty histogram are zero, not garbage.
    obs::HistogramData empty;
    EXPECT_EQ(empty.quantile(0.5), 0.0);
}

