/**
 * @file
 * Shared helpers for the test binaries.
 */

#ifndef BWSA_TESTS_TEST_HELPERS_HH
#define BWSA_TESTS_TEST_HELPERS_HH

#include "core/pipeline.hh"

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

} // namespace bwsa::testhelpers

#endif // BWSA_TESTS_TEST_HELPERS_HH
