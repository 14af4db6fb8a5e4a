/**
 * @file
 * Tests of the sharded parallel profiling engine (profile/shard.hh)
 * and the ProfileSession two-phase API (core/pipeline.hh):
 *
 *  - the sharded conflict graph is *identical* to the serial one --
 *    node order, execution counts, every edge count -- for bounded
 *    and unbounded windows, any shard count, with and without a
 *    frequency selection;
 *  - the derived boundary stitch adds exactly the increments a
 *    replaying stitch (a test-only oracle) finds, boundary by
 *    boundary, and composeBoundary() reproduces the serial window;
 *  - conflict-graph merging is associative and commutative (the
 *    algebra the shard merge relies on);
 *  - ProfileSession enforces its phase discipline, and repeated
 *    serial sessions merge exactly like single-session runs.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <unordered_map>

#include "core/pipeline.hh"
#include "test_helpers.hh"
#include "profile/interleave.hh"
#include "profile/shard.hh"
#include "profile/stitch.hh"
#include "store/block_trace.hh"
#include "trace/frequency_filter.hh"
#include "trace/trace_stats.hh"
#include "util/random.hh"
#include "workload/presets.hh"

using namespace bwsa;

namespace
{

/** Random trace over @p distinct pcs with ascending timestamps. */
MemoryTrace
makeRandomTrace(std::uint64_t seed, std::size_t records,
                std::uint64_t distinct)
{
    Pcg32 rng(seed);
    MemoryTrace trace;
    std::uint64_t ts = 0;
    for (std::size_t i = 0; i < records; ++i) {
        BranchRecord r;
        r.pc = 0x400000 + 8ull * rng.nextBounded(
                               static_cast<std::uint32_t>(distinct));
        ts += 1 + rng.nextBounded(12);
        r.timestamp = ts;
        r.taken = rng.nextBool(0.6);
        trace.onBranch(r);
    }
    return trace;
}

/** Trace where every pc occurs exactly once (stitch worst case). */
MemoryTrace
makeAllDistinctTrace(std::size_t records)
{
    MemoryTrace trace;
    for (std::size_t i = 0; i < records; ++i) {
        BranchRecord r;
        r.pc = 0x400000 + 8ull * i;
        r.timestamp = 4 * (i + 1);
        r.taken = (i % 2) == 0;
        trace.onBranch(r);
    }
    return trace;
}

/**
 * Strict equality: node order, counts, and every edge count; both
 * graphs must also hold the sorted-edge invariant.
 */
::testing::AssertionResult
graphsIdentical(const ConflictGraph &a, const ConflictGraph &b)
{
    for (const ConflictGraph *g : {&a, &b})
        if (::testing::AssertionResult ok =
                testhelpers::edgeInvariantHolds(*g);
            !ok)
            return ok;
    if (a.nodeCount() != b.nodeCount())
        return ::testing::AssertionFailure()
               << "node counts differ: " << a.nodeCount() << " vs "
               << b.nodeCount();
    for (NodeId id = 0; id < a.nodeCount(); ++id) {
        const ConflictNode &na = a.node(id);
        const ConflictNode &nb = b.node(id);
        if (na.pc != nb.pc)
            return ::testing::AssertionFailure()
                   << "node " << id << " pc differs: " << na.pc
                   << " vs " << nb.pc;
        if (na.executed != nb.executed || na.taken != nb.taken)
            return ::testing::AssertionFailure()
                   << "node " << id << " counts differ";
    }
    if (a.edges() != b.edges())
        return ::testing::AssertionFailure()
               << "edge maps differ (" << a.edgeCount() << " vs "
               << b.edgeCount() << " edges)";
    return ::testing::AssertionSuccess();
}

/** Serial reference profile with an optional frequency filter. */
ConflictGraph
serialReference(const TraceSource &source,
                const InterleaveConfig &config,
                const FrequencySelection *selection = nullptr)
{
    ConflictGraph graph;
    InterleaveTracker tracker(graph, config);
    if (selection) {
        FilteredSink filter(*selection, tracker);
        source.replay(filter);
    } else {
        source.replay(tracker);
    }
    return graph;
}

ShardConfig
shardConfig(unsigned shards, std::size_t max_window,
            const FrequencySelection *selection = nullptr)
{
    ShardConfig config;
    config.shards = shards;
    config.threads = 2;
    config.interleave.max_window = max_window;
    config.selection = selection;
    return config;
}

} // namespace

TEST(ShardedProfile, EqualsSerialWithBoundedWindow)
{
    MemoryTrace trace = makeRandomTrace(7, 4000, 300);
    for (std::size_t window : {std::size_t(4), std::size_t(16),
                               std::size_t(64)}) {
        InterleaveConfig serial_config;
        serial_config.max_window = window;
        ConflictGraph serial = serialReference(trace, serial_config);
        for (unsigned shards : {2u, 3u, 5u, 8u, 16u}) {
            ConflictGraph sharded = profileTrace(
                trace, shardConfig(shards, window));
            EXPECT_TRUE(graphsIdentical(serial, sharded))
                << "window=" << window << " shards=" << shards;
        }
    }
}

TEST(ShardedProfile, EqualsSerialWithUnboundedWindow)
{
    MemoryTrace trace = makeRandomTrace(11, 2500, 120);
    InterleaveConfig serial_config;
    serial_config.max_window = 0;
    ConflictGraph serial = serialReference(trace, serial_config);
    for (unsigned shards : {2u, 7u}) {
        ConflictGraph sharded =
            profileTrace(trace, shardConfig(shards, 0));
        EXPECT_TRUE(graphsIdentical(serial, sharded))
            << "shards=" << shards;
    }
}

TEST(ShardedProfile, EqualsSerialUnderFrequencySelection)
{
    MemoryTrace trace = makeRandomTrace(13, 5000, 400);
    TraceStatsCollector stats;
    trace.replay(stats);
    FrequencySelection selection = selectByFrequency(stats, 0.9);
    ASSERT_GT(selection.selected.size(), 0u);
    ASSERT_LT(selection.selected.size(), stats.staticBranches());

    InterleaveConfig serial_config;
    serial_config.max_window = 32;
    ConflictGraph serial =
        serialReference(trace, serial_config, &selection);
    ConflictGraph sharded = profileTrace(
        trace, shardConfig(6, 32, &selection));
    EXPECT_TRUE(graphsIdentical(serial, sharded));
}

TEST(ShardedProfile, AllDistinctPcsStitchWorstCase)
{
    // No branch ever re-executes: shard trackers emit nothing at the
    // boundaries and the stitch recovers nothing -- but with an
    // unbounded window it must scan to each segment's end without
    // breaking equality.
    MemoryTrace trace = makeAllDistinctTrace(600);
    for (std::size_t window : {std::size_t(0), std::size_t(8)}) {
        InterleaveConfig serial_config;
        serial_config.max_window = window;
        ConflictGraph serial = serialReference(trace, serial_config);
        ConflictGraph sharded = profileTrace(
            trace, shardConfig(4, window));
        EXPECT_TRUE(graphsIdentical(serial, sharded))
            << "window=" << window;
    }
}

TEST(ShardedProfile, SinglePcTrace)
{
    MemoryTrace trace = makeRandomTrace(17, 1000, 1);
    InterleaveConfig serial_config;
    serial_config.max_window = 8;
    ConflictGraph serial = serialReference(trace, serial_config);
    ConflictGraph sharded =
        profileTrace(trace, shardConfig(5, 8));
    EXPECT_TRUE(graphsIdentical(serial, sharded));
    EXPECT_EQ(sharded.nodeCount(), 1u);
    EXPECT_EQ(sharded.edgeCount(), 0u);
}

TEST(ShardedProfile, TinyAndEmptyTraces)
{
    MemoryTrace empty;
    ConflictGraph g_empty =
        profileTrace(empty, shardConfig(4, 16));
    EXPECT_EQ(g_empty.nodeCount(), 0u);

    MemoryTrace one = makeRandomTrace(19, 1, 5);
    ConflictGraph g_one =
        profileTrace(one, shardConfig(4, 16));
    EXPECT_EQ(g_one.nodeCount(), 1u);

    // More shards than records degrades gracefully.
    MemoryTrace three = makeRandomTrace(23, 3, 2);
    InterleaveConfig serial_config;
    serial_config.max_window = 16;
    EXPECT_TRUE(graphsIdentical(
        serialReference(three, serial_config),
        profileTrace(three, shardConfig(16, 16))));
}

TEST(ShardedProfile, WorkloadTraceEqualsSerial)
{
    Workload w = makeWorkload("m88ksim", "", 0.05);
    MemoryTrace trace;
    w.source().replay(trace);

    InterleaveConfig serial_config; // default bounded window
    ConflictGraph serial = serialReference(trace, serial_config);
    ConflictGraph sharded = profileTrace(
        trace, shardConfig(4, serial_config.max_window));
    EXPECT_TRUE(graphsIdentical(serial, sharded));
    EXPECT_GT(sharded.edgeCount(), 0u);
}

TEST(ShardedProfile, GraphTraceEqualsSerial)
{
    // Graph kernel traces go through the exact same sharded pipeline
    // as the synthetic workloads; the conflict graph must not depend
    // on the shard count there either.
    ResolvedWorkload w =
        resolveWorkload("graph:bfs:powerlaw", "", 0.05);
    MemoryTrace trace;
    w.source()->replay(trace);

    InterleaveConfig serial_config; // default bounded window
    ConflictGraph serial = serialReference(trace, serial_config);
    for (unsigned shards : {2u, 5u}) {
        ConflictGraph sharded = profileTrace(
            trace, shardConfig(shards, serial_config.max_window));
        EXPECT_TRUE(graphsIdentical(serial, sharded)) << shards;
    }
    EXPECT_GT(serial.edgeCount(), 0u);
}

TEST(ShardedProfile, RunStatsAccountForEveryShard)
{
    MemoryTrace trace = makeRandomTrace(29, 3000, 100);
    ConflictGraph graph;
    ShardRunStats stats =
        profileTraceSharded(trace, graph, shardConfig(6, 32));

    EXPECT_EQ(stats.shards, 6u);
    EXPECT_EQ(stats.threads, 2u);
    ASSERT_EQ(stats.timings.size(), 6u);
    std::uint64_t records = 0;
    for (std::size_t i = 0; i < stats.timings.size(); ++i) {
        EXPECT_EQ(stats.timings[i].index, i);
        EXPECT_GE(stats.timings[i].millis, 0.0);
        records += stats.timings[i].records;
    }
    EXPECT_EQ(records, trace.recordCount());
    EXPECT_LE(stats.stitch.boundaries, 5u);
    EXPECT_GT(stats.stitch.pair_increments, 0u);
    EXPECT_GE(stats.total_millis, 0.0);
}

TEST(ShardedProfile, SerialPathForOneShard)
{
    MemoryTrace trace = makeRandomTrace(31, 500, 40);
    TraceStatsCollector trace_stats;
    trace.replay(trace_stats);
    FrequencySelection selection = selectByFrequency(trace_stats, 0.8);
    ASSERT_LT(selection.analyzed_dynamic, trace.recordCount());

    InterleaveConfig serial_config;
    serial_config.max_window = 16;
    const FrequencySelection *filters[] = {nullptr, &selection};
    for (const FrequencySelection *filter : filters) {
        ConflictGraph graph;
        ShardRunStats stats = profileTraceSharded(
            trace, graph, shardConfig(1, 16, filter));
        EXPECT_EQ(stats.shards, 1u);
        EXPECT_EQ(stats.stitch.boundaries, 0u);
        // The one timing counts the raw records, filtered or not.
        ASSERT_EQ(stats.timings.size(), 1u);
        EXPECT_EQ(stats.timings[0].records, trace.recordCount());
        EXPECT_TRUE(graphsIdentical(
            serialReference(trace, serial_config, filter), graph));
    }
}

TEST(ShardedProfile, RequiresEmptyGraph)
{
    MemoryTrace trace = makeRandomTrace(37, 100, 10);
    ConflictGraph graph;
    graph.addOrGetNode(0x1000);
    EXPECT_DEATH(profileTraceSharded(trace, graph, shardConfig(2, 8)),
                 "empty graph");
}

// ---------------------------------------------------------------
// The derived boundary stitch against a replaying oracle.

namespace
{

using PcPair = std::pair<BranchPc, BranchPc>;
using PcPairCounts = std::map<PcPair, std::uint64_t>;

PcPair
orderedPair(BranchPc a, BranchPc b)
{
    return a < b ? PcPair{a, b} : PcPair{b, a};
}

/** Edge counts of @p graph keyed by pc pair. */
PcPairCounts
pcEdges(const ConflictGraph &graph)
{
    PcPairCounts out;
    for (const auto &[key, count] : graph.edges()) {
        auto [a, b] = ConflictGraph::unpackEdge(key);
        out[orderedPair(graph.node(a).pc, graph.node(b).pc)] = count;
    }
    return out;
}

/**
 * The replaying boundary stitch the derived one replaced, kept as its
 * oracle: a window seeded with the boundary state (its entries marked
 * *old*) replays the segment; the first re-execution of an old branch
 * emits its suffix walk -- the increments a cold segment tracker
 * missed -- and everything else merely evolves the window.
 */
class StitchSink : public TraceSink
{
  public:
    StitchSink(const std::vector<BranchPc> &seed, std::size_t max_window)
        : _max_window(max_window)
    {
        for (BranchPc pc : seed) {
            std::uint32_t id = slotFor(pc);
            _slots[id].old_entry = true;
            appendTail(id);
        }
        _old_remaining = seed.size();
    }

    void
    onBranch(const BranchRecord &record) override
    {
        std::uint32_t id = slotFor(record.pc);
        Slot &slot = _slots[id];
        if (slot.in_list) {
            if (slot.old_entry) {
                for (std::uint32_t cur = slot.next; cur != npos;
                     cur = _slots[cur].next) {
                    ++_deltas[orderedPair(record.pc, _slots[cur].pc)];
                    ++_increments;
                }
                slot.old_entry = false;
                --_old_remaining;
            }
            unlink(id);
        }
        appendTail(id);
        if (_max_window != 0 && _size > _max_window)
            evictHead();
    }

    bool done() const override { return _old_remaining == 0; }

    const PcPairCounts &deltas() const { return _deltas; }
    std::uint64_t increments() const { return _increments; }

    /** Old entries evicted before they re-ran. */
    std::uint64_t oldEvicted() const { return _old_evicted; }

  private:
    static constexpr std::uint32_t npos = ~std::uint32_t(0);

    struct Slot
    {
        std::uint32_t prev = npos;
        std::uint32_t next = npos;
        BranchPc pc = 0;
        bool in_list = false;
        bool old_entry = false;
    };

    std::uint32_t
    slotFor(BranchPc pc)
    {
        auto [it, inserted] = _pc_to_slot.try_emplace(
            pc, static_cast<std::uint32_t>(_slots.size()));
        if (inserted) {
            _slots.emplace_back();
            _slots.back().pc = pc;
        }
        return it->second;
    }

    void
    unlink(std::uint32_t id)
    {
        Slot &slot = _slots[id];
        if (slot.prev != npos)
            _slots[slot.prev].next = slot.next;
        else
            _head = slot.next;
        if (slot.next != npos)
            _slots[slot.next].prev = slot.prev;
        else
            _tail = slot.prev;
        slot.prev = npos;
        slot.next = npos;
        slot.in_list = false;
        --_size;
    }

    void
    appendTail(std::uint32_t id)
    {
        Slot &slot = _slots[id];
        slot.prev = _tail;
        slot.next = npos;
        slot.in_list = true;
        if (_tail != npos)
            _slots[_tail].next = id;
        else
            _head = id;
        _tail = id;
        ++_size;
    }

    void
    evictHead()
    {
        std::uint32_t id = _head;
        if (_slots[id].old_entry) {
            _slots[id].old_entry = false;
            --_old_remaining;
            ++_old_evicted;
        }
        unlink(id);
    }

    std::size_t _max_window;
    std::vector<Slot> _slots;
    std::unordered_map<BranchPc, std::uint32_t> _pc_to_slot;
    PcPairCounts _deltas;
    std::uint32_t _head = npos;
    std::uint32_t _tail = npos;
    std::size_t _size = 0;
    std::size_t _old_remaining = 0;
    std::uint64_t _increments = 0;
    std::uint64_t _old_evicted = 0;
};

/** Replay @p source into @p sink, through the optional filter. */
void
replayThrough(const TraceSource &source,
              const FrequencySelection *selection, TraceSink &sink)
{
    if (selection) {
        FilteredSink filter(*selection, sink);
        source.replay(filter);
    } else {
        source.replay(sink);
    }
}

/**
 * A hot loop of 6 branches mixed with uniform draws over 300 cold
 * ones, whose share drops in the second half: boundary windows hold
 * branches that never recur, and small windows evict mid-segment.
 */
MemoryTrace
makeStitchTrace(std::uint64_t seed)
{
    Pcg32 rng(seed);
    MemoryTrace trace;
    std::uint64_t ts = 0;
    constexpr std::size_t records = 2400;
    for (std::size_t i = 0; i < records; ++i) {
        double cold_share = i < records / 2 ? 0.5 : 0.15;
        BranchRecord r;
        r.pc = rng.nextBool(cold_share)
                   ? 0x500000 + 8ull * rng.nextBounded(300)
                   : 0x400000 + 8ull * (i % 6);
        ts += 1 + rng.nextBounded(9);
        r.timestamp = ts;
        r.taken = rng.nextBool(0.55);
        trace.onBranch(r);
    }
    return trace;
}

/** Cases the matrix below must reach at least once. */
struct StitchCoverage
{
    std::uint64_t short_segments = 0; ///< fewer records than the bound
    std::uint64_t never_recurring = 0; ///< old branch absent from segment
    std::uint64_t evicted_old = 0; ///< old branch evicted before re-run
    std::uint64_t increments = 0;
};

/**
 * Walk one segmentation boundary by boundary: the composed boundary
 * must equal the serial window, and the derived stitch must add
 * exactly the oracle's pc-pair increments.
 */
void
checkDerivedStitch(const MemoryTrace &trace, unsigned shards,
                   std::size_t max_window,
                   const FrequencySelection *selection,
                   StitchCoverage &coverage)
{
    InterleaveConfig config;
    config.max_window = max_window;
    ConflictGraph serial_graph;
    InterleaveTracker serial(serial_graph, config);

    std::vector<BranchPc> boundary; // composed state at segment start
    for (const TraceSegment &segment : trace.segments(shards)) {
        SCOPED_TRACE(::testing::Message()
                     << "segment [" << segment.begin() << ", "
                     << segment.end() << ")");
        ASSERT_EQ(boundary, serial.windowPcs());

        ConflictGraph graph;
        InterleaveTracker cold(graph, config);
        replayThrough(segment, selection, cold);
        EXPECT_TRUE(testhelpers::edgeInvariantHolds(graph));
        std::vector<BranchPc> next = composeBoundary(boundary, cold);

        if (!boundary.empty()) {
            StitchSink oracle(boundary, max_window);
            replayThrough(segment, selection, oracle);

            PcPairCounts before = pcEdges(graph);
            std::uint64_t increments = stitchBoundary(boundary, cold);
            cold.onEnd();
            EXPECT_TRUE(testhelpers::edgeInvariantHolds(graph));
            PcPairCounts derived;
            for (const auto &[pair, count] : pcEdges(graph)) {
                auto it = before.find(pair);
                std::uint64_t was = it == before.end() ? 0 : it->second;
                if (count != was)
                    derived[pair] = count - was;
            }
            EXPECT_EQ(derived, oracle.deltas());
            EXPECT_EQ(increments, oracle.increments());

            coverage.increments += increments;
            coverage.evicted_old += oracle.oldEvicted();
            if (max_window != 0 && segment.recordCount() < max_window)
                ++coverage.short_segments;
            for (BranchPc pc : boundary)
                if (graph.findNode(pc) == invalid_node)
                    ++coverage.never_recurring;
        }

        replayThrough(segment, selection, serial);
        boundary = std::move(next);
    }
    ASSERT_EQ(boundary, serial.windowPcs());
}

} // namespace

TEST(DerivedStitch, MatchesReplayingOracle)
{
    StitchCoverage coverage;
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        MemoryTrace trace = makeStitchTrace(seed);
        TraceStatsCollector stats;
        trace.replay(stats);
        FrequencySelection selection = selectByFrequency(stats, 0.95);
        ASSERT_LT(selection.selected.size(), stats.staticBranches());
        for (std::size_t window :
             {0u, 1u, 2u, 3u, 16u, 64u, 4096u}) {
            for (unsigned shards : {2u, 3u, 4u, 7u}) {
                for (bool filtered : {false, true}) {
                    SCOPED_TRACE(::testing::Message()
                                 << "seed=" << seed
                                 << " window=" << window
                                 << " shards=" << shards
                                 << " filtered=" << filtered);
                    checkDerivedStitch(trace, shards, window,
                                       filtered ? &selection : nullptr,
                                       coverage);
                }
            }
        }
    }
    EXPECT_GT(coverage.increments, 0u);
    EXPECT_GT(coverage.short_segments, 0u);
    EXPECT_GT(coverage.never_recurring, 0u);
    EXPECT_GT(coverage.evicted_old, 0u);
}

// ---------------------------------------------------------------
// Conflict-graph merge algebra (what the shard merge relies on).

namespace
{

ConflictGraph
profileChunk(std::uint64_t seed)
{
    MemoryTrace trace = makeRandomTrace(seed, 800, 60);
    InterleaveConfig config;
    config.max_window = 24;
    return serialReference(trace, config);
}

/** Equality up to node renaming: compare by pc, not node id. */
void
expectEquivalent(const ConflictGraph &a, const ConflictGraph &b)
{
    ASSERT_EQ(a.nodeCount(), b.nodeCount());
    ASSERT_EQ(a.edgeCount(), b.edgeCount());
    for (const ConflictNode &node : a.nodes()) {
        NodeId other = b.findNode(node.pc);
        ASSERT_NE(other, invalid_node) << "pc " << node.pc;
        EXPECT_EQ(node.executed, b.node(other).executed);
        EXPECT_EQ(node.taken, b.node(other).taken);
    }
    for (const auto &[key, count] : a.edges()) {
        auto [ia, ib] = ConflictGraph::unpackEdge(key);
        NodeId oa = b.findNode(a.node(ia).pc);
        NodeId ob = b.findNode(a.node(ib).pc);
        ASSERT_NE(oa, invalid_node);
        ASSERT_NE(ob, invalid_node);
        EXPECT_EQ(b.interleaveCount(oa, ob), count);
    }
}

} // namespace

TEST(ConflictGraphMerge, Associative)
{
    ConflictGraph a = profileChunk(101);
    ConflictGraph b = profileChunk(202);
    ConflictGraph c = profileChunk(303);

    // (a + b) + c
    ConflictGraph left = a;
    left.mergeFrom(b);
    left.mergeFrom(c);

    // a + (b + c)
    ConflictGraph bc = b;
    bc.mergeFrom(c);
    ConflictGraph right = a;
    right.mergeFrom(bc);

    // Node-id assignment agrees too (a's nodes first, then new pcs in
    // first-appearance order), so equality is strict.
    EXPECT_TRUE(graphsIdentical(left, right));

    // Pruning filters the sorted array without breaking it.
    for (std::uint64_t threshold : {2u, 5u, 1000u})
        EXPECT_TRUE(
            testhelpers::edgeInvariantHolds(left.pruned(threshold)));
}

TEST(ConflictGraphMerge, CommutativeUpToNodeOrder)
{
    ConflictGraph a = profileChunk(404);
    ConflictGraph b = profileChunk(505);

    ConflictGraph ab = a;
    ab.mergeFrom(b);
    ConflictGraph ba = b;
    ba.mergeFrom(a);

    EXPECT_TRUE(testhelpers::edgeInvariantHolds(ab));
    EXPECT_TRUE(testhelpers::edgeInvariantHolds(ba));
    expectEquivalent(ab, ba);
}

TEST(ConflictGraphMerge, IdentityAndSelfAccumulation)
{
    ConflictGraph a = profileChunk(606);
    ConflictGraph empty;

    ConflictGraph merged = a;
    merged.mergeFrom(empty);
    EXPECT_TRUE(graphsIdentical(a, merged));

    // Merging a graph into itself doubles every count.
    ConflictGraph doubled = a;
    doubled.mergeFrom(a);
    ASSERT_EQ(doubled.nodeCount(), a.nodeCount());
    for (NodeId id = 0; id < a.nodeCount(); ++id)
        EXPECT_EQ(doubled.node(id).executed, 2 * a.node(id).executed);
    for (const auto &[key, count] : a.edges()) {
        auto [na, nb] = ConflictGraph::unpackEdge(key);
        EXPECT_EQ(doubled.interleaveCount(na, nb), 2 * count);
    }
}

// ---------------------------------------------------------------
// ProfileSession: phase discipline and equivalence.

TEST(ProfileSession, MatchesDirectProfileTrace)
{
    MemoryTrace trace = makeRandomTrace(41, 3000, 200);

    // A session over an everything-covered selection must build the
    // same graph as the raw interleave analysis (the default coverage
    // of 0.999 can drop nothing from a trace this small and uniform).
    ConflictGraph direct = profileTrace(trace);

    AllocationPipeline via_session;
    {
        ProfileSession session(via_session);
        session.addStats(trace);
        session.commit();
        session.addInterleave(trace);
        session.finish();
    }

    EXPECT_EQ(via_session.profileCount(), 1u);
    EXPECT_GT(via_session.graph().nodeCount(), 0u);
    EXPECT_LE(via_session.graph().nodeCount(), direct.nodeCount());
}

TEST(ProfileSession, ShardedInterleaveMatchesSerial)
{
    MemoryTrace trace = makeRandomTrace(43, 4000, 250);

    AllocationPipeline serial;
    testhelpers::profileRun(serial, trace);

    for (unsigned shards : {1u, 2u, 4u}) {
        AllocationPipeline sharded;
        {
            ProfileSession session(sharded);
            session.addStats(trace);
            session.commit();
            ShardRunStats stats =
                session.addInterleave(trace, shards, 2);
            EXPECT_EQ(stats.shards, shards);
            std::uint64_t records = 0;
            for (const ShardTiming &timing : stats.timings)
                records += timing.records;
            EXPECT_EQ(records, trace.recordCount()) << shards;
            session.finish();
        }
        EXPECT_TRUE(graphsIdentical(serial.graph(), sharded.graph()))
            << "shards=" << shards;
    }
}

TEST(ProfileSession, SelectionVisibleAfterCommit)
{
    MemoryTrace trace = makeRandomTrace(47, 2000, 150);
    AllocationPipeline pipeline;
    EXPECT_FALSE(pipeline.hasProfileData());

    ProfileSession session(pipeline);
    session.addStats(trace);
    const FrequencySelection &selection = session.commit();
    EXPECT_TRUE(pipeline.hasProfileData());
    EXPECT_EQ(&selection, &pipeline.lastSelection());
    EXPECT_EQ(pipeline.lastStats().dynamicBranches(),
              trace.recordCount());
    // Abandoning before finish() leaves the cumulative state alone.
    EXPECT_EQ(pipeline.profileCount(), 0u);
}

TEST(ProfileSession, MultiInputStatisticsAccumulate)
{
    MemoryTrace a = makeRandomTrace(53, 1200, 80);
    MemoryTrace b = makeRandomTrace(59, 1400, 80);
    AllocationPipeline pipeline;
    ProfileSession session(pipeline);
    session.addStats(a);
    session.addStats(b);
    session.commit();
    EXPECT_EQ(pipeline.lastStats().dynamicBranches(),
              a.recordCount() + b.recordCount());
    EXPECT_EQ(pipeline.lastSelection().total_dynamic,
              a.recordCount() + b.recordCount());
}

TEST(ProfileSession, GuardsAgainstPhaseMisuse)
{
    MemoryTrace trace = makeRandomTrace(61, 200, 20);

    // Accessors before any committed run are fatal, not empty data.
    EXPECT_EXIT(
        { AllocationPipeline(PipelineConfig{}).lastStats(); },
        ::testing::ExitedWithCode(1), "before any committed");
    EXPECT_EXIT(
        { AllocationPipeline(PipelineConfig{}).lastSelection(); },
        ::testing::ExitedWithCode(1), "before any committed");

    EXPECT_EXIT(
        {
            AllocationPipeline p;
            ProfileSession s(p);
            s.addInterleave(trace); // before commit
        },
        ::testing::ExitedWithCode(1), "before commit");
    EXPECT_EXIT(
        {
            AllocationPipeline p;
            ProfileSession s(p);
            s.commit();
            s.commit();
        },
        ::testing::ExitedWithCode(1), "twice");
    EXPECT_EXIT(
        {
            AllocationPipeline p;
            ProfileSession s(p);
            s.commit();
            s.addStats(trace); // statistics after commit
        },
        ::testing::ExitedWithCode(1), "after commit");
    EXPECT_EXIT(
        {
            AllocationPipeline p;
            ProfileSession s(p);
            s.finish(); // finish before commit
        },
        ::testing::ExitedWithCode(1), "before commit");
    EXPECT_EXIT(
        {
            AllocationPipeline p;
            ProfileSession s(p);
            s.addStats(trace);
            s.commit();
            s.addInterleave(trace);
            s.addInterleave(trace, 2); // a second pass
        },
        ::testing::ExitedWithCode(1), "second interleave pass");
    EXPECT_EXIT(
        {
            AllocationPipeline p;
            ProfileSession s(p);
            s.addStats(trace);
            s.commit();
            s.finish();
            s.addInterleave(trace); // after finish
        },
        ::testing::ExitedWithCode(1), "after finish");
}

TEST(ProfileSession, CumulativeProfilesAcrossSessions)
{
    MemoryTrace a = makeRandomTrace(67, 1000, 60);
    MemoryTrace b = makeRandomTrace(71, 1000, 60);

    AllocationPipeline via_helper;
    testhelpers::profileRun(via_helper, a);
    testhelpers::profileRun(via_helper, b);

    AllocationPipeline via_sessions;
    for (const MemoryTrace *trace : {&a, &b}) {
        ProfileSession session(via_sessions);
        session.addStats(*trace);
        session.commit();
        session.addInterleave(*trace);
        session.finish();
    }

    EXPECT_EQ(via_sessions.profileCount(), 2u);
    EXPECT_TRUE(
        graphsIdentical(via_helper.graph(), via_sessions.graph()));
}

// ---------------------------------------------------------------
// Decode-cost asymmetry of sharding file traces: the v1 stream format
// pays an O(prefix) skip-decode per shard, the v2 block container
// seeks.  Both behaviours are pinned through the readers' decode
// counters so a regression in either direction fails loudly.

namespace
{

/** Temp trace path for the file-shard tests. */
std::string
shardTempPath(const std::string &stem)
{
    return (std::filesystem::temp_directory_path() /
            ("bwsa_shard_test_" + stem + ".trace"))
        .string();
}

} // namespace

TEST(ShardedFileTrace, V2SegmentsDecodeOnlyTheirOwnBlocks)
{
    constexpr std::size_t records = 8000;
    constexpr std::uint64_t block_records = 100;
    constexpr unsigned shards = 8;

    MemoryTrace trace = makeRandomTrace(73, records, 600);
    std::string path = shardTempPath("v2_segments");
    store::writeBlockTraceFile(path, trace, block_records);
    store::BlockTraceReader reader(path);

    // Each segment's replay decodes its own records plus at most one
    // block's worth of in-block prefix -- never the stream prefix.
    std::uint64_t decoded_before = 0;
    for (const TraceSegment &segment : reader.segments(shards)) {
        TraceStatsCollector sink;
        segment.replay(sink);
        std::uint64_t decoded = reader.recordsDecoded();
        EXPECT_LE(decoded - decoded_before,
                  segment.recordCount() + block_records)
            << "segment [" << segment.begin() << ", "
            << segment.end() << ")";
        decoded_before = decoded;
    }
    // Across all shards: O(N + K * block), nowhere near O(K * N).
    EXPECT_LE(reader.recordsDecoded(),
              records + std::uint64_t(shards) * block_records);
    std::filesystem::remove(path);
}

TEST(ShardedFileTrace, V2ShardedProfileSeeksAndMatchesSerial)
{
    constexpr std::size_t records = 8000;
    constexpr std::uint64_t block_records = 100;
    constexpr unsigned shards = 8;

    MemoryTrace trace = makeRandomTrace(79, records, 600);
    std::string path = shardTempPath("v2_profile");
    store::writeBlockTraceFile(path, trace, block_records);
    store::BlockTraceReader reader(path);

    InterleaveConfig serial_config;
    serial_config.max_window = 16;
    ConflictGraph serial = serialReference(trace, serial_config);
    ConflictGraph sharded =
        profileTrace(reader, shardConfig(shards, 16));
    EXPECT_TRUE(graphsIdentical(serial, sharded));

    // Shard pass: N + at most one block prefix per shard.  Stitch
    // pass: one early-stopping boundary scan per boundary.  Even with
    // a generous stitch allowance the total stays far below the
    // N * (shards + 1) / 2 (4.5x N here) a reader that decodes each
    // shard's whole prefix would pay.
    EXPECT_LE(reader.recordsDecoded(), 3 * std::uint64_t(records));
    std::filesystem::remove(path);
}
