/**
 * @file
 * Tests for the profiling layer: the time-stamp interleave analysis
 * of Section 4.1 against hand-worked examples, window eviction, and
 * the conflict graph's pruning and merging.
 */

#include <map>
#include <set>
#include <span>
#include <tuple>
#include <unordered_map>

#include <gtest/gtest.h>

#include "test_helpers.hh"

#include "profile/conflict_graph.hh"
#include "profile/interleave.hh"
#include "profile/shard.hh"
#include "trace/trace.hh"
#include "util/random.hh"

using namespace bwsa;

namespace
{

/** Emit a sequence of branch pcs (taken=false) as a trace. */
MemoryTrace
traceOf(const std::vector<BranchPc> &pcs)
{
    MemoryTrace trace;
    std::uint64_t ts = 0;
    for (BranchPc pc : pcs) {
        ts += 5;
        trace.onBranch({pc, ts, false});
    }
    return trace;
}

constexpr BranchPc A = 0x1000, B = 0x1008, C = 0x1010, D = 0x1018;

/** Profile a pc sequence with the given window. */
ConflictGraph
profileSeq(const std::vector<BranchPc> &pcs, std::size_t window = 0)
{
    ShardConfig config;
    config.interleave.max_window = window;
    return profileTrace(traceOf(pcs), config);
}

std::uint64_t
edge(const ConflictGraph &g, BranchPc a, BranchPc b)
{
    NodeId na = g.findNode(a), nb = g.findNode(b);
    if (na == invalid_node || nb == invalid_node)
        return 0;
    return g.interleaveCount(na, nb);
}

} // namespace

// ------------------------------------------------- interleave semantics

TEST(Interleave, PaperFigure1Example)
{
    // The paper's example: A B C A -- re-executing A finds B and C
    // with newer time stamps, recording A-B and A-C interleavings.
    ConflictGraph g = profileSeq({A, B, C, A});
    EXPECT_EQ(g.nodeCount(), 3u);
    EXPECT_EQ(edge(g, A, B), 1u);
    EXPECT_EQ(edge(g, A, C), 1u);
    EXPECT_EQ(edge(g, B, C), 0u); // B never re-executed
}

TEST(Interleave, AlternationCountsEachReExecution)
{
    // A B A B A: A's 2nd instance sees B (A-B +1); B's 2nd sees A
    // (+1); A's 3rd sees B (+1) = 3.
    ConflictGraph g = profileSeq({A, B, A, B, A});
    EXPECT_EQ(edge(g, A, B), 3u);
}

TEST(Interleave, RepeatedBranchAloneHasNoEdges)
{
    ConflictGraph g = profileSeq({A, A, A, A});
    EXPECT_EQ(g.nodeCount(), 1u);
    EXPECT_EQ(g.edgeCount(), 0u);
    EXPECT_EQ(g.node(0).executed, 4u);
}

TEST(Interleave, OnlyBranchesSinceLastInstanceCount)
{
    // A B A C A: A's 2nd sees {B}; A's 3rd sees {C} only -- B ran
    // before A's 2nd instance, not after.
    ConflictGraph g = profileSeq({A, B, A, C, A});
    EXPECT_EQ(edge(g, A, B), 1u);
    EXPECT_EQ(edge(g, A, C), 1u);
    EXPECT_EQ(edge(g, B, C), 0u);
}

TEST(Interleave, LoopBodyFormsCompleteSubgraph)
{
    // (A B C) x 10: in each of the 9 repeat cycles every pair is
    // recorded twice -- once from each endpoint's re-execution (the
    // paper counts every instance of interleaving between the pair).
    std::vector<BranchPc> pcs;
    for (int i = 0; i < 10; ++i) {
        pcs.push_back(A);
        pcs.push_back(B);
        pcs.push_back(C);
    }
    ConflictGraph g = profileSeq(pcs);
    EXPECT_EQ(edge(g, A, B), 18u);
    EXPECT_EQ(edge(g, B, C), 18u);
    EXPECT_EQ(edge(g, A, C), 18u);
}

TEST(Interleave, ExecutionAndTakenCountsRecorded)
{
    MemoryTrace trace;
    trace.onBranch({A, 5, true});
    trace.onBranch({A, 10, false});
    trace.onBranch({A, 15, true});
    ConflictGraph g = profileTrace(trace);
    const ConflictNode &node = g.node(g.findNode(A));
    EXPECT_EQ(node.executed, 3u);
    EXPECT_EQ(node.taken, 2u);
    EXPECT_NEAR(node.takenRate(), 2.0 / 3.0, 1e-12);
    EXPECT_EQ(g.totalExecutions(), 3u);
}

TEST(Interleave, WindowEvictionSuppressesLongRangePairs)
{
    // Window of 2: when A re-executes after B and C, A has already
    // been evicted, so no pair is recorded.
    InterleaveConfig config;
    config.max_window = 2;
    ConflictGraph g;
    InterleaveTracker tracker(g, config);
    traceOf({A, B, C, A}).replay(tracker);
    EXPECT_EQ(g.edgeCount(), 0u);
    EXPECT_EQ(tracker.evictedReentries(), 1u);
}

TEST(Interleave, UnboundedWindowMatchesLargeWindow)
{
    std::vector<BranchPc> pcs;
    Pcg32 rng(3);
    for (int i = 0; i < 5000; ++i)
        pcs.push_back(0x1000 + 8ull * rng.nextBounded(40));
    ConflictGraph g0 = profileSeq(pcs, 0);    // unbounded
    ConflictGraph g1 = profileSeq(pcs, 4096); // way beyond 40
    ASSERT_EQ(g0.edgeCount(), g1.edgeCount());
    for (const auto &[key, count] : g0.edges()) {
        auto [a, b] = ConflictGraph::unpackEdge(key);
        ASSERT_EQ(g1.interleaveCount(a, b), count);
    }
}

TEST(Interleave, PairIncrementsAreCounted)
{
    ConflictGraph g;
    InterleaveTracker tracker(g);
    traceOf({A, B, C, A}).replay(tracker);
    EXPECT_EQ(tracker.pairIncrements(), 2u);
    EXPECT_EQ(tracker.windowSize(), 3u);
}

// --------------------------------------------------------- conflict graph

TEST(ConflictGraph, NodeIdentityByPc)
{
    ConflictGraph g;
    NodeId a1 = g.addOrGetNode(A);
    NodeId a2 = g.addOrGetNode(A);
    NodeId b = g.addOrGetNode(B);
    EXPECT_EQ(a1, a2);
    EXPECT_NE(a1, b);
    EXPECT_EQ(g.findNode(A), a1);
    EXPECT_EQ(g.findNode(0xdead), invalid_node);
}

TEST(ConflictGraph, EdgePackingRoundTrips)
{
    ConflictGraph g;
    NodeId a = g.addOrGetNode(A);
    NodeId b = g.addOrGetNode(B);
    g.addInterleave(b, a, 7); // order-insensitive
    EXPECT_EQ(g.interleaveCount(a, b), 7u);
    EXPECT_EQ(g.interleaveCount(b, a), 7u);

    for (const auto &[key, count] : g.edges()) {
        auto [x, y] = ConflictGraph::unpackEdge(key);
        EXPECT_EQ(std::min(x, y), std::min(a, b));
        EXPECT_EQ(std::max(x, y), std::max(a, b));
        EXPECT_EQ(count, 7u);
    }
}

TEST(ConflictGraphDeath, SelfEdgePanics)
{
    ConflictGraph g;
    NodeId a = g.addOrGetNode(A);
    EXPECT_DEATH(g.addInterleave(a, a), "self edge");
}

TEST(ConflictGraph, PruneDropsWeakEdges)
{
    ConflictGraph g;
    NodeId a = g.addOrGetNode(A);
    NodeId b = g.addOrGetNode(B);
    NodeId c = g.addOrGetNode(C);
    g.addInterleave(a, b, 1000);
    g.addInterleave(b, c, 50);

    ConflictGraph pruned = g.pruned(100);
    EXPECT_EQ(pruned.nodeCount(), 3u); // nodes survive
    EXPECT_EQ(pruned.edgeCount(), 1u);
    EXPECT_EQ(pruned.interleaveCount(a, b), 1000u);
    EXPECT_EQ(pruned.interleaveCount(b, c), 0u);

    // Threshold-boundary edge survives (>= semantics).
    ConflictGraph boundary = g.pruned(50);
    EXPECT_EQ(boundary.edgeCount(), 2u);
}

TEST(ConflictGraph, MergeAccumulatesAcrossInputs)
{
    // Section 5.2's cumulative profiles: counts add up, ids remap by
    // PC even when insertion order differs.
    ConflictGraph g1;
    {
        NodeId a = g1.addOrGetNode(A), b = g1.addOrGetNode(B);
        testhelpers::recordExecution(g1, a, true);
        testhelpers::recordExecution(g1, b, false);
        g1.addInterleave(a, b, 10);
    }
    ConflictGraph g2;
    {
        NodeId c = g2.addOrGetNode(C), a = g2.addOrGetNode(A);
        NodeId b = g2.addOrGetNode(B);
        testhelpers::recordExecution(g2, a, false);
        testhelpers::recordExecution(g2, c, true);
        g2.addInterleave(a, b, 5);
        g2.addInterleave(a, c, 200);
    }
    g1.mergeFrom(g2);
    EXPECT_EQ(g1.nodeCount(), 3u);
    EXPECT_EQ(edge(g1, A, B), 15u);
    EXPECT_EQ(edge(g1, A, C), 200u);
    EXPECT_EQ(g1.node(g1.findNode(A)).executed, 2u);
    EXPECT_EQ(g1.node(g1.findNode(A)).taken, 1u);
    EXPECT_EQ(g1.totalExecutions(), 4u);
}

TEST(ConflictGraph, AdjacencyMatchesEdges)
{
    ConflictGraph g = profileSeq({A, B, C, A, B, C, A, D, A});
    NeighbourLists adj = neighbourLists(g.edges(), g.nodeCount());
    ASSERT_EQ(adj.nodeCount(), g.nodeCount());
    std::size_t total = 0;
    for (NodeId v = 0; v < adj.nodeCount(); ++v) {
        std::span<const NodeId> nbrs = adj.of(v);
        for (std::size_t i = 0; i < nbrs.size(); ++i) {
            EXPECT_EQ(g.interleaveCount(v, nbrs[i]),
                      adj.weights[adj.offsets[v] + i]);
            ++total;
        }
        // sorted by neighbour id
        for (std::size_t i = 1; i < nbrs.size(); ++i)
            EXPECT_LT(nbrs[i - 1], nbrs[i]);
    }
    EXPECT_EQ(total, 2 * g.edgeCount());
}

TEST(ConflictGraph, NeighboursOfEmptyGraph)
{
    NeighbourLists adj = neighbourLists({}, 0);
    EXPECT_EQ(adj.nodeCount(), 0u);
    EXPECT_EQ(adj.offsets, std::vector<std::size_t>{0});
    EXPECT_TRUE(adj.targets.empty());
    EXPECT_EQ(NeighbourLists().nodeCount(), 0u);
}

TEST(ConflictGraph, NeighboursOfIsolatedNodes)
{
    ConflictGraph g;
    NodeId a = g.addOrGetNode(A), b = g.addOrGetNode(B);
    NodeId c = g.addOrGetNode(C), d = g.addOrGetNode(D);
    g.addInterleave(b, d, 3);
    NeighbourLists adj = neighbourLists(g.edges(), g.nodeCount());
    ASSERT_EQ(adj.nodeCount(), 4u);
    EXPECT_TRUE(adj.of(a).empty());
    EXPECT_TRUE(adj.of(c).empty());
    ASSERT_EQ(adj.of(b).size(), 1u);
    EXPECT_EQ(adj.of(b)[0], d);
    ASSERT_EQ(adj.of(d).size(), 1u);
    EXPECT_EQ(adj.of(d)[0], b);
    EXPECT_EQ(adj.weights, (std::vector<std::uint64_t>{3, 3}));
}

TEST(ConflictGraph, NeighbourListsOfFilteredEdgesMatchPruned)
{
    // Any subsequence of the key-sorted edges yields sorted lists:
    // filtering by threshold must give exactly the pruned copy's.
    ConflictGraph g;
    for (BranchPc pc = 0; pc < 12; ++pc)
        g.addOrGetNode(0x1000 + 4 * pc);
    for (NodeId a = 0; a < 12; ++a)
        for (NodeId b = a + 1; b < 12; ++b)
            if ((a * 7 + b * 3) % 5 != 0)
                g.addInterleave(a, b, 1 + (a * 13 + b * 5) % 9);
    const std::uint64_t threshold = 5;
    std::vector<ConflictGraph::Edge> kept;
    for (const ConflictGraph::Edge &edge : g.edges())
        if (edge.second >= threshold)
            kept.push_back(edge);
    ASSERT_LT(kept.size(), g.edgeCount());
    NeighbourLists filtered = neighbourLists(kept, g.nodeCount());
    ConflictGraph pruned_graph = g.pruned(threshold);
    NeighbourLists pruned =
        neighbourLists(pruned_graph.edges(), pruned_graph.nodeCount());
    EXPECT_EQ(filtered.offsets, pruned.offsets);
    EXPECT_EQ(filtered.targets, pruned.targets);
    EXPECT_EQ(filtered.weights, pruned.weights);
    for (NodeId v = 0; v < filtered.nodeCount(); ++v) {
        std::span<const NodeId> nbrs = filtered.of(v);
        for (std::size_t i = 0; i < nbrs.size(); ++i)
            EXPECT_EQ(filtered.weights[filtered.offsets[v] + i],
                      g.interleaveCount(v, nbrs[i]));
        for (std::size_t i = 1; i < nbrs.size(); ++i)
            EXPECT_LT(nbrs[i - 1], nbrs[i]);
    }
}

// ------------------------------------------------- multi-replay tracking

TEST(Interleave, TrackerAccumulatesAcrossReplays)
{
    // Two replays into the same tracker double every count (the
    // flush at onEnd merges into the same graph).
    ConflictGraph g;
    InterleaveTracker tracker(g);
    MemoryTrace trace = traceOf({A, B, A, B, A});
    trace.replay(tracker);
    std::uint64_t first = edge(g, A, B);
    trace.replay(tracker);
    EXPECT_EQ(edge(g, A, B), 2 * first + 1);
    // (+1: the window persists across replays, so the second replay's
    // first A sees the B left over from the first replay.)
}

// ------------------------------------------- brute-force §4.1 oracle

namespace
{

/** What the §4.1 definition says a profile of a trace contains. */
struct OracleProfile
{
    std::vector<BranchPc> pcs; ///< node ids in first-occurrence order
    std::vector<std::uint64_t> executed;
    std::vector<std::uint64_t> taken;
    std::map<std::uint64_t, std::uint64_t> edges; ///< by packed key
};

/**
 * Brute force, straight from the definition: on every re-execution
 * of A, each distinct branch executed since A's previous instance
 * interleaved with A once.  With a window, A counts as re-executed
 * only while it is among the max_window most recently executed
 * distinct branches, i.e. when fewer than max_window distinct
 * branches ran since its previous instance.
 */
OracleProfile
bruteForceProfile(const std::vector<BranchRecord> &records,
                  std::size_t max_window)
{
    OracleProfile out;
    std::unordered_map<BranchPc, NodeId> ids;
    std::unordered_map<BranchPc, std::size_t> last;
    for (std::size_t t = 0; t < records.size(); ++t) {
        const BranchRecord &r = records[t];
        auto [it, fresh] = ids.emplace(r.pc, out.pcs.size());
        if (fresh) {
            out.pcs.push_back(r.pc);
            out.executed.push_back(0);
            out.taken.push_back(0);
        }
        NodeId a = it->second;
        ++out.executed[a];
        out.taken[a] += r.taken ? 1 : 0;
        auto prev = last.find(r.pc);
        if (prev != last.end()) {
            std::set<NodeId> since;
            for (std::size_t i = prev->second + 1; i < t; ++i)
                since.insert(ids.at(records[i].pc));
            if (max_window == 0 || since.size() < max_window)
                for (NodeId b : since)
                    ++out.edges[(std::uint64_t(std::min(a, b)) << 32) |
                                std::max(a, b)];
        }
        last[r.pc] = t;
    }
    return out;
}

void
expectMatchesOracle(const ConflictGraph &g, const OracleProfile &want)
{
    ASSERT_EQ(g.nodeCount(), want.pcs.size());
    for (NodeId v = 0; v < g.nodeCount(); ++v) {
        EXPECT_EQ(g.node(v).pc, want.pcs[v]) << "node " << v;
        EXPECT_EQ(g.node(v).executed, want.executed[v]) << "node " << v;
        EXPECT_EQ(g.node(v).taken, want.taken[v]) << "node " << v;
    }
    EXPECT_EQ(g.edges(), std::vector<ConflictGraph::Edge>(
                             want.edges.begin(), want.edges.end()));
}

/**
 * Seeded records over a population that keeps growing (so counter
 * rows turn dense early and must widen as slots arrive), mixing a
 * small hot loop -- whose rows stay sparse -- with uniform draws.
 */
std::vector<BranchRecord>
oracleTrace(std::uint64_t seed, std::size_t records,
            std::uint32_t population)
{
    Pcg32 rng(seed);
    std::vector<BranchRecord> out;
    std::uint64_t ts = 0;
    for (std::size_t i = 0; i < records; ++i) {
        std::uint32_t live = std::min<std::uint32_t>(
            population, 8 + static_cast<std::uint32_t>(i / 16));
        std::uint32_t index = rng.nextBool(0.5)
                                  ? rng.nextBounded(3)
                                  : rng.nextBounded(live);
        ts += 1 + rng.nextBounded(4);
        out.push_back({0x40000 + 8ull * index, ts, rng.nextBool(0.6)});
    }
    return out;
}

MemoryTrace
memoryTraceOf(const std::vector<BranchRecord> &records)
{
    MemoryTrace trace;
    for (const BranchRecord &r : records)
        trace.onBranch(r);
    return trace;
}

} // namespace

class TrackerOracle
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::size_t>>
{
};

TEST_P(TrackerOracle, MatchesBruteForceDefinition)
{
    auto [seed, window] = GetParam();
    std::vector<BranchRecord> records = oracleTrace(seed, 6000, 300);
    ShardConfig config;
    config.interleave.max_window = window;
    expectMatchesOracle(profileTrace(memoryTraceOf(records), config),
                        bruteForceProfile(records, window));
}

TEST_P(TrackerOracle, FlushBetweenReplaysMatchesConcatenation)
{
    // onEnd() after the first replay flushes into the graph; the
    // window and slots persist, so after the second replay the graph
    // is the profile of both traces back to back.
    auto [seed, window] = GetParam();
    std::vector<BranchRecord> first = oracleTrace(seed + 100, 3000, 200);
    std::vector<BranchRecord> second = oracleTrace(seed + 200, 3000, 300);
    std::uint64_t shift = first.back().timestamp;
    for (BranchRecord &r : second)
        r.timestamp += shift;

    InterleaveConfig config;
    config.max_window = window;
    ConflictGraph g;
    InterleaveTracker tracker(g, config);
    memoryTraceOf(first).replay(tracker);
    expectMatchesOracle(g, bruteForceProfile(first, window));

    memoryTraceOf(second).replay(tracker);
    std::vector<BranchRecord> both = first;
    both.insert(both.end(), second.begin(), second.end());
    expectMatchesOracle(g, bruteForceProfile(both, window));
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndWindows, TrackerOracle,
    ::testing::Combine(::testing::Values(1u, 2u, 3u),
                       ::testing::Values(std::size_t(0),
                                         std::size_t(24))));
