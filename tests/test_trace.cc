/**
 * @file
 * Unit and property tests for the trace substrate: records, stream
 * plumbing, binary file round-trips, statistics collection, and the
 * frequency-based static branch reduction of Table 1.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "store/block_trace.hh"
#include "trace/frequency_filter.hh"
#include "trace/trace.hh"
#include "trace/trace_stats.hh"
#include "trace/varint.hh"
#include "util/random.hh"

using namespace bwsa;

namespace
{

/** Build a simple trace: pcs cycle; every third branch taken. */
MemoryTrace
makeCyclicTrace(std::size_t records, std::size_t distinct_pcs)
{
    MemoryTrace trace;
    for (std::size_t i = 0; i < records; ++i) {
        BranchRecord r;
        r.pc = 0x400000 + 8 * (i % distinct_pcs);
        r.timestamp = 5 * (i + 1);
        r.taken = (i % 3 == 0);
        trace.onBranch(r);
    }
    return trace;
}

/** Random trace with strictly ascending timestamps. */
MemoryTrace
makeRandomTrace(std::uint64_t seed, std::size_t records)
{
    Pcg32 rng(seed);
    MemoryTrace trace;
    std::uint64_t ts = 0;
    for (std::size_t i = 0; i < records; ++i) {
        BranchRecord r;
        r.pc = 0x400000 + 8ull * rng.nextBounded(5000);
        ts += 1 + rng.nextBounded(20);
        r.timestamp = ts;
        r.taken = rng.nextBool(0.6);
        trace.onBranch(r);
    }
    return trace;
}

/** Temp file path helper; unique per test. */
std::string
tempPath(const std::string &stem)
{
    return (std::filesystem::temp_directory_path() /
            ("bwsa_test_" + stem + ".trace"))
        .string();
}

/**
 * Write @p trace to @p path in 64-record blocks, so even the small
 * test traces span many blocks and every replay crosses block
 * boundaries.
 */
std::uint64_t
writeBlocked(const std::string &path, const MemoryTrace &trace)
{
    return store::writeBlockTraceFile(path, trace, 64);
}

/** Sink that counts deliveries. */
class CountingSink : public TraceSink
{
  public:
    void onBranch(const BranchRecord &) override { ++branches; }
    void onEnd() override { ++ends; }
    int branches = 0;
    int ends = 0;
};

/**
 * Counting wrapper that forwards everything (including done()) to an
 * inner sink -- observes how many records a source actually delivers.
 */
class ForwardingCounter : public TraceSink
{
  public:
    explicit ForwardingCounter(TraceSink &inner) : _inner(inner) {}
    void
    onBranch(const BranchRecord &r) override
    {
        ++branches;
        _inner.onBranch(r);
    }
    void onEnd() override { _inner.onEnd(); }
    bool done() const override { return _inner.done(); }
    int branches = 0;

  private:
    TraceSink &_inner;
};

} // namespace

// ------------------------------------------------------------ MemoryTrace

TEST(MemoryTrace, StoresAndReplays)
{
    MemoryTrace trace = makeCyclicTrace(10, 3);
    EXPECT_EQ(trace.size(), 10u);
    EXPECT_FALSE(trace.empty());
    EXPECT_EQ(trace[0].pc, 0x400000u);
    EXPECT_TRUE(trace[0].taken);

    MemoryTrace copy;
    trace.replay(copy);
    ASSERT_EQ(copy.size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i)
        EXPECT_EQ(copy[i], trace[i]);
}

TEST(MemoryTrace, ReplayIsRepeatable)
{
    MemoryTrace trace = makeCyclicTrace(50, 7);
    CountingSink sink;
    trace.replay(sink);
    trace.replay(sink);
    EXPECT_EQ(sink.branches, 100);
    EXPECT_EQ(sink.ends, 2);
}

TEST(MemoryTrace, ClearEmpties)
{
    MemoryTrace trace = makeCyclicTrace(5, 2);
    trace.clear();
    EXPECT_TRUE(trace.empty());
    EXPECT_EQ(trace.size(), 0u);
}

// ------------------------------------------------------------- FanoutSink

TEST(FanoutSink, DeliversToAll)
{
    MemoryTrace trace = makeCyclicTrace(20, 4);
    CountingSink a, b, c;
    FanoutSink fan;
    fan.addSink(a);
    fan.addSink(b);
    fan.addSink(c);
    EXPECT_EQ(fan.sinkCount(), 3u);
    trace.replay(fan);
    for (const CountingSink *s : {&a, &b, &c}) {
        EXPECT_EQ(s->branches, 20);
        EXPECT_EQ(s->ends, 1);
    }
}

// --------------------------------------------------------- TruncatingSink

TEST(TruncatingSink, CutsAtInstructionLimit)
{
    MemoryTrace trace = makeCyclicTrace(100, 5); // timestamps 5..500
    MemoryTrace out;
    TruncatingSink trunc(out, 250);
    trace.replay(trunc);
    EXPECT_EQ(out.size(), 50u);
    EXPECT_TRUE(trunc.saturated());
    EXPECT_LE(out[out.size() - 1].timestamp, 250u);
}

TEST(TruncatingSink, ZeroMeansUnlimited)
{
    MemoryTrace trace = makeCyclicTrace(100, 5);
    MemoryTrace out;
    TruncatingSink trunc(out, 0);
    trace.replay(trunc);
    EXPECT_EQ(out.size(), 100u);
    EXPECT_FALSE(trunc.saturated());
}

TEST(TruncatingSink, SourceStopsReplayingOnceSaturated)
{
    // Regression: sources used to replay all the way to the end with
    // the truncating sink dropping everything past the budget; done()
    // lets them stop as soon as the budget is hit.
    MemoryTrace trace = makeCyclicTrace(1000, 5); // timestamps 5..5000
    CountingSink inner;
    TruncatingSink trunc(inner, 250);
    ForwardingCounter delivered(trunc);
    trace.replay(delivered);

    EXPECT_TRUE(trunc.saturated());
    EXPECT_EQ(inner.branches, 50);
    // One extra delivery flips the sink to saturated; the other ~949
    // records are never replayed at all.
    EXPECT_EQ(delivered.branches, 51);
    EXPECT_EQ(inner.ends, 1); // onEnd still arrives after early stop
}

TEST(TruncatingSink, FileReaderHonorsEarlyStop)
{
    MemoryTrace trace = makeRandomTrace(7, 500);
    std::string path = tempPath("early_stop");
    writeBlocked(path, trace);

    CountingSink inner;
    TruncatingSink trunc(inner, trace[49].timestamp);
    ForwardingCounter delivered(trunc);
    store::openTraceReader(path)->replay(delivered);

    EXPECT_TRUE(trunc.saturated());
    EXPECT_EQ(inner.branches, 50);
    EXPECT_LT(delivered.branches, 500);
    std::remove(path.c_str());
}

TEST(FanoutSink, DoneOnlyWhenEverySinkIsDone)
{
    MemoryTrace a_out, b_out;
    TruncatingSink a(a_out, 100), b(b_out, 300);
    FanoutSink fan;
    EXPECT_FALSE(fan.done()); // empty fanout never claims done
    fan.addSink(a);
    fan.addSink(b);

    MemoryTrace trace = makeCyclicTrace(100, 5); // timestamps 5..500
    ForwardingCounter delivered(fan);
    trace.replay(delivered);

    // Replay runs until *both* budgets are exhausted, not the first.
    EXPECT_EQ(a_out.size(), 20u);
    EXPECT_EQ(b_out.size(), 60u);
    EXPECT_EQ(delivered.branches, 61);
}

// ------------------------------------------------------------ trace stats

TEST(TraceStats, CountsPerBranch)
{
    TraceStatsCollector stats;
    MemoryTrace trace = makeCyclicTrace(30, 3); // 10 executions each
    trace.replay(stats);

    EXPECT_EQ(stats.dynamicBranches(), 30u);
    EXPECT_EQ(stats.staticBranches(), 3u);
    EXPECT_EQ(stats.lastTimestamp(), 150u);

    // Taken every third record; pc repeats with period 3, so pc 0
    // absorbs all taken instances.
    BranchCounts c0 = stats.counts(0x400000);
    EXPECT_EQ(c0.executed, 10u);
    EXPECT_EQ(c0.taken, 10u);
    EXPECT_DOUBLE_EQ(c0.takenRate(), 1.0);

    BranchCounts c1 = stats.counts(0x400008);
    EXPECT_EQ(c1.executed, 10u);
    EXPECT_EQ(c1.taken, 0u);

    EXPECT_EQ(stats.counts(0xdead).executed, 0u);
}

TEST(TraceStats, FrequencyOrderIsDescending)
{
    TraceStatsCollector stats;
    // pc0 x5, pc1 x3, pc2 x1
    std::uint64_t ts = 0;
    auto emit = [&](BranchPc pc, int times) {
        for (int i = 0; i < times; ++i) {
            BranchRecord r{pc, ++ts, false};
            stats.onBranch(r);
        }
    };
    emit(0xa0, 5);
    emit(0xb0, 3);
    emit(0xc0, 1);

    std::vector<BranchPc> order = stats.branchesByFrequency();
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], 0xa0u);
    EXPECT_EQ(order[1], 0xb0u);
    EXPECT_EQ(order[2], 0xc0u);
}

TEST(TraceStats, ClearResets)
{
    TraceStatsCollector stats;
    makeCyclicTrace(10, 2).replay(stats);
    stats.clear();
    EXPECT_EQ(stats.dynamicBranches(), 0u);
    EXPECT_EQ(stats.staticBranches(), 0u);
}

// ------------------------------------------------------- frequency filter

TEST(FrequencyFilter, FullCoverageKeepsEverything)
{
    TraceStatsCollector stats;
    makeRandomTrace(11, 2000).replay(stats);
    FrequencySelection sel = selectByFrequency(stats, 1.0);
    EXPECT_EQ(sel.selected.size(), stats.staticBranches());
    EXPECT_DOUBLE_EQ(sel.coverage(), 1.0);
}

TEST(FrequencyFilter, PartialCoverageDropsColdBranches)
{
    TraceStatsCollector stats;
    std::uint64_t ts = 0;
    // One dominant branch (90%) plus 10 cold ones.
    for (int i = 0; i < 90; ++i)
        stats.onBranch({0x1000, ++ts, true});
    for (int i = 0; i < 10; ++i)
        stats.onBranch({0x2000 + 8ull * i, ++ts, false});

    FrequencySelection sel = selectByFrequency(stats, 0.9);
    EXPECT_EQ(sel.selected.size(), 1u);
    EXPECT_TRUE(sel.contains(0x1000));
    EXPECT_GE(sel.coverage(), 0.9);
}

TEST(FrequencyFilter, CoverageIsMonotoneInTarget)
{
    TraceStatsCollector stats;
    makeRandomTrace(13, 5000).replay(stats);
    double last_coverage = 0.0;
    std::size_t last_size = 0;
    for (double target : {0.5, 0.7, 0.9, 0.99, 1.0}) {
        FrequencySelection sel = selectByFrequency(stats, target);
        EXPECT_GE(sel.coverage(), last_coverage);
        EXPECT_GE(sel.selected.size(), last_size);
        // Coverage meets the target (the last hot branch may overshoot).
        EXPECT_GE(sel.coverage(), target - 1e-9);
        last_coverage = sel.coverage();
        last_size = sel.selected.size();
    }
}

TEST(FrequencyFilter, StaticCapWins)
{
    TraceStatsCollector stats;
    makeRandomTrace(17, 5000).replay(stats);
    FrequencySelection sel = selectByFrequency(stats, 1.0, 10);
    EXPECT_EQ(sel.selected.size(), 10u);
    EXPECT_LT(sel.coverage(), 1.0);
}

TEST(FrequencyFilter, FilteredSinkDropsUnselected)
{
    TraceStatsCollector stats;
    MemoryTrace trace = makeRandomTrace(19, 3000);
    trace.replay(stats);
    FrequencySelection sel = selectByFrequency(stats, 0.8);

    MemoryTrace kept;
    FilteredSink filter(sel, kept);
    trace.replay(filter);

    EXPECT_EQ(kept.size() + filter.dropped(), trace.size());
    EXPECT_EQ(kept.size(), sel.analyzed_dynamic);
    for (std::size_t i = 0; i < kept.size(); ++i)
        ASSERT_TRUE(sel.contains(kept[i].pc));
}

TEST(FrequencyFilter, FilteredSinkTableMatchesSetMembership)
{
    // The sink probes its own SlotTable copy of the selection: it
    // must keep exactly the records the set contains, including pcs
    // 0 and ~0, for selections that leave the table nearly empty and
    // ones that make it grow.
    Pcg32 rng(23);
    std::vector<BranchPc> pcs = {0, ~BranchPc(0), 8, ~BranchPc(0) - 8};
    for (int i = 0; i < 600; ++i)
        pcs.push_back(0x400000 + 8ull * rng.nextBounded(4000));
    MemoryTrace trace;
    std::uint64_t ts = 0;
    for (BranchPc pc : pcs)
        trace.onBranch({pc, ++ts, rng.nextBool(0.5)});

    for (std::size_t keep : {std::size_t(0), std::size_t(1),
                             std::size_t(8), std::size_t(9),
                             std::size_t(300)}) {
        for (bool with_marker : {false, true}) {
            FrequencySelection sel;
            if (with_marker)
                sel.selected.insert(~BranchPc(0));
            for (std::size_t i = 0;
                 i < pcs.size() && sel.selected.size() < keep; i += 2)
                sel.selected.insert(pcs[i]);

            MemoryTrace kept;
            FilteredSink filter(sel, kept);
            trace.replay(filter);

            std::vector<BranchPc> want;
            for (BranchPc pc : pcs)
                if (sel.contains(pc))
                    want.push_back(pc);
            std::vector<BranchPc> got;
            for (std::size_t i = 0; i < kept.size(); ++i)
                got.push_back(kept[i].pc);
            EXPECT_EQ(got, want)
                << "keep " << keep << " marker " << with_marker;
            EXPECT_EQ(filter.dropped(), pcs.size() - want.size());
        }
    }
}

// --------------------------------------------- range replay + segments

namespace
{

/**
 * Source that only implements replay() -- exercises the default
 * replayRange()/recordCount() built on RangeFilterSink.
 */
class ReplayOnlySource : public TraceSource
{
  public:
    explicit ReplayOnlySource(const MemoryTrace &trace)
        : _trace(trace)
    {
    }

    void
    replay(TraceSink &sink) const override
    {
        for (std::size_t i = 0; i < _trace.size(); ++i) {
            if (sink.done())
                break;
            ++delivered;
            sink.onBranch(_trace[i]);
        }
        sink.onEnd();
    }

    mutable int delivered = 0;

  private:
    const MemoryTrace &_trace;
};

/** Records delivered by replayRange(begin, end) on @p source. */
MemoryTrace
rangeOf(const TraceSource &source, std::uint64_t begin,
        std::uint64_t end)
{
    MemoryTrace out;
    source.replayRange(out, begin, end);
    return out;
}

void
expectSameRecords(const MemoryTrace &a, const MemoryTrace &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(a[i], b[i]) << "record " << i;
}

} // namespace

TEST(RangeReplay, MemoryTraceSlices)
{
    MemoryTrace trace = makeRandomTrace(21, 100);
    MemoryTrace mid = rangeOf(trace, 10, 25);
    ASSERT_EQ(mid.size(), 15u);
    for (std::size_t i = 0; i < mid.size(); ++i)
        EXPECT_EQ(mid[i], trace[10 + i]);

    // End clamps to the stream; begin past the end is empty.
    EXPECT_EQ(rangeOf(trace, 90, 1000).size(), 10u);
    EXPECT_EQ(rangeOf(trace, 500, 600).size(), 0u);
    EXPECT_EQ(rangeOf(trace, 30, 30).size(), 0u);
}

TEST(RangeReplay, DefaultImplementationMatchesOverride)
{
    MemoryTrace trace = makeRandomTrace(23, 200);
    ReplayOnlySource fallback(trace);
    EXPECT_EQ(fallback.recordCount(), trace.size());
    expectSameRecords(rangeOf(fallback, 40, 90),
                      rangeOf(trace, 40, 90));
}

TEST(RangeReplay, DefaultStopsEarlyAtRangeEnd)
{
    MemoryTrace trace = makeRandomTrace(27, 1000);
    ReplayOnlySource fallback(trace);
    MemoryTrace out;
    fallback.replayRange(out, 0, 10);
    EXPECT_EQ(out.size(), 10u);
    // RangeFilterSink reports done() at the range end, so the source
    // must not have scanned the whole stream.
    EXPECT_EQ(fallback.delivered, 10);
}

TEST(RangeReplay, RangeFilterForwardsInnerDone)
{
    MemoryTrace trace = makeRandomTrace(29, 100);
    MemoryTrace inner;
    RangeFilterSink filter(inner, 5, 50);
    EXPECT_FALSE(filter.done());
    trace.replay(filter);
    EXPECT_EQ(inner.size(), 45u);
    EXPECT_TRUE(filter.done());
}

TEST(Segments, PartitionTheStream)
{
    MemoryTrace trace = makeRandomTrace(31, 103);
    for (unsigned k : {1u, 2u, 3u, 7u, 16u}) {
        std::vector<TraceSegment> segments = trace.segments(k);
        ASSERT_EQ(segments.size(), k) << "k=" << k;
        std::uint64_t total = 0;
        std::uint64_t max_size = 0, min_size = ~0ull;
        MemoryTrace joined;
        for (const TraceSegment &segment : segments) {
            total += segment.recordCount();
            max_size = std::max(max_size, segment.recordCount());
            min_size = std::min(min_size, segment.recordCount());
            segment.replay(joined);
        }
        EXPECT_EQ(total, trace.size());
        // Balanced split: sizes differ by at most one record.
        EXPECT_LE(max_size - min_size, 1u);
        expectSameRecords(joined, trace);
    }
}

TEST(Segments, DegenerateShapes)
{
    // More segments than records: short streams degrade gracefully.
    MemoryTrace three = makeRandomTrace(33, 3);
    std::vector<TraceSegment> segments = three.segments(8);
    std::uint64_t total = 0;
    for (const TraceSegment &segment : segments)
        total += segment.recordCount();
    EXPECT_EQ(total, 3u);

    // Empty stream: a single empty segment, still replayable.
    MemoryTrace empty;
    std::vector<TraceSegment> none = empty.segments(4);
    ASSERT_EQ(none.size(), 1u);
    EXPECT_EQ(none[0].recordCount(), 0u);
    CountingSink sink;
    none[0].replay(sink);
    EXPECT_EQ(sink.branches, 0);
    EXPECT_EQ(sink.ends, 1);
}

TEST(Segments, NestedRangeComposes)
{
    MemoryTrace trace = makeRandomTrace(37, 120);
    std::vector<TraceSegment> segments = trace.segments(3);
    const TraceSegment &mid = segments[1]; // records [40, 80)
    ASSERT_EQ(mid.recordCount(), 40u);
    MemoryTrace sub = rangeOf(mid, 5, 15);
    ASSERT_EQ(sub.size(), 10u);
    for (std::size_t i = 0; i < sub.size(); ++i)
        EXPECT_EQ(sub[i], trace[45 + i]);
    // Out-of-range clamp within the segment.
    EXPECT_EQ(rangeOf(mid, 30, 100).size(), 10u);
}

TEST(TraceIo, FileReaderRangeReplayMatchesMemory)
{
    MemoryTrace trace = makeRandomTrace(41, 500);
    std::string path = tempPath("range_replay");
    writeBlocked(path, trace);
    auto reader = store::openTraceReader(path);
    EXPECT_EQ(reader->recordCount(), trace.size());

    expectSameRecords(rangeOf(*reader, 0, 500), trace);
    expectSameRecords(rangeOf(*reader, 123, 321),
                      rangeOf(trace, 123, 321));
    EXPECT_EQ(rangeOf(*reader, 499, 10'000).size(), 1u);
    EXPECT_EQ(rangeOf(*reader, 600, 700).size(), 0u);

    // Segment replays concatenate back to the whole file.
    MemoryTrace joined;
    for (const TraceSegment &segment : reader->segments(7))
        segment.replay(joined);
    expectSameRecords(joined, trace);
    std::filesystem::remove(path);
}

// ------------------------------------------------- fixed-width fields

namespace
{

/** The byte-at-a-time little-endian writer the one-store writers replace. */
template <typename T>
std::string
byteLoopLittleEndian(T v)
{
    std::string out;
    for (std::size_t i = 0; i < sizeof(T); ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    return out;
}

/** 0, 1, 2^k - 1, 2^k and 2^k + 1 for every k, and all ones. */
template <typename T>
std::vector<T>
edgeValues()
{
    std::vector<T> values = {0, 1, static_cast<T>(~T(0))};
    for (unsigned k = 1; k < 8 * sizeof(T); ++k) {
        T p = static_cast<T>(T(1) << k);
        values.insert(values.end(), {static_cast<T>(p - 1), p,
                                     static_cast<T>(p + 1)});
    }
    return values;
}

/**
 * appendU32/appendU64 (@p append) against the byte loop, and
 * getU32/getU64 (@p get) reading each value back from a buffer of
 * every value in turn, then failing without advancing at every
 * truncated length.
 */
template <typename T, typename Append, typename Get>
void
checkFixedWidth(Append append, Get get)
{
    std::string all;
    for (T v : edgeValues<T>()) {
        std::string one;
        append(one, v);
        EXPECT_EQ(one, byteLoopLittleEndian(v)) << "value " << v;
        all += one;
    }
    ByteCursor cur(all);
    for (T v : edgeValues<T>()) {
        T read = 0;
        ASSERT_TRUE(get(cur, read));
        EXPECT_EQ(read, v);
    }
    EXPECT_TRUE(cur.atEnd());

    std::string one;
    append(one, static_cast<T>(0x0123456789abcdefULL));
    for (std::size_t keep = 0; keep < sizeof(T); ++keep) {
        ByteCursor truncated(one.data(), keep);
        T read = 7;
        EXPECT_FALSE(get(truncated, read)) << "kept " << keep;
        EXPECT_EQ(read, 7u) << "kept " << keep;
        EXPECT_EQ(truncated.remaining(), keep) << "kept " << keep;
    }
}

} // namespace

TEST(FixedWidthField, U32MatchesByteLoopAndReadsBack)
{
    checkFixedWidth<std::uint32_t>(
        [](std::string &out, std::uint32_t v) { appendU32(out, v); },
        [](ByteCursor &cur, std::uint32_t &v) { return cur.getU32(v); });
}

TEST(FixedWidthField, U64MatchesByteLoopAndReadsBack)
{
    checkFixedWidth<std::uint64_t>(
        [](std::string &out, std::uint64_t v) { appendU64(out, v); },
        [](ByteCursor &cur, std::uint64_t &v) { return cur.getU64(v); });
}

TEST(FixedWidthField, AppendsAfterExistingBytes)
{
    // A field lands at the end of whatever the buffer already holds,
    // whatever its alignment.
    std::string out = "abc";
    appendU32(out, 0xdeadbeefu);
    appendU64(out, 0x1122334455667788ULL);
    EXPECT_EQ(out, "abc" + byteLoopLittleEndian(0xdeadbeefu) +
                       byteLoopLittleEndian(0x1122334455667788ULL));
    ByteCursor cur(out.data() + 3, out.size() - 3);
    std::uint32_t a = 0;
    std::uint64_t b = 0;
    ASSERT_TRUE(cur.getU32(a) && cur.getU64(b));
    EXPECT_EQ(a, 0xdeadbeefu);
    EXPECT_EQ(b, 0x1122334455667788ULL);
}
