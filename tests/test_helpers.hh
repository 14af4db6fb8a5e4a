/**
 * @file
 * Shared helpers for the test binaries.
 */

#ifndef BWSA_TESTS_TEST_HELPERS_HH
#define BWSA_TESTS_TEST_HELPERS_HH

#include <gtest/gtest.h>

#include "core/pipeline.hh"
#include "util/random.hh"

namespace bwsa::testhelpers
{

/**
 * One serial single-source profile run driven through the
 * ProfileSession API: statistics pass, commit, interleave pass,
 * finish.  The tests' shorthand for "profile this trace into the
 * pipeline" now that the deprecated AllocationPipeline::addProfile
 * wrapper is gone.
 */
inline void
profileRun(AllocationPipeline &pipeline, const TraceSource &source)
{
    ProfileSession session(pipeline);
    session.addStats(source);
    session.commit();
    session.addInterleave(source);
    session.finish();
}

/** Add one dynamic execution of node @p id to @p graph. */
inline void
recordExecution(ConflictGraph &graph, NodeId id, bool taken)
{
    graph.restoreNode(graph.node(id).pc, 1, taken ? 1 : 0);
}

/**
 * The ConflictGraph edge invariant: keys strictly ascending, each a
 * (min, max) pair of distinct in-range nodes, no zero counts.
 */
inline ::testing::AssertionResult
edgeInvariantHolds(const ConflictGraph &graph)
{
    const std::vector<ConflictGraph::Edge> &edges = graph.edges();
    for (std::size_t i = 0; i < edges.size(); ++i) {
        auto [a, b] = ConflictGraph::unpackEdge(edges[i].first);
        if (a >= b)
            return ::testing::AssertionFailure()
                   << "edge " << i << " (" << a << ", " << b
                   << ") is a self edge or not packed min-first";
        if (b >= graph.nodeCount())
            return ::testing::AssertionFailure()
                   << "edge " << i << " names node " << b << " of "
                   << graph.nodeCount();
        if (edges[i].second == 0)
            return ::testing::AssertionFailure()
                   << "edge " << i << " has a zero count";
        if (i > 0 && edges[i - 1].first >= edges[i].first)
            return ::testing::AssertionFailure()
                   << "edge keys not strictly ascending at " << i;
    }
    return ::testing::AssertionSuccess();
}

/**
 * Seeded records over a population that keeps growing, one new
 * branch per 16 records up to @p population: slots keep arriving
 * while rows are live, so dense rows must widen, and a bounded
 * window below the population sees the live slot count cross its
 * floor (InterleaveTracker's row-form rule).  Half the draws hit a
 * three-branch hot loop, the rest the whole live population.
 */
inline std::vector<BranchRecord>
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

} // namespace bwsa::testhelpers

#endif // BWSA_TESTS_TEST_HELPERS_HH
