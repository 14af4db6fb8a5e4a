/**
 * @file
 * Branch working set extraction (Section 4).
 *
 * The paper defines a working set as "a set of conditional branch
 * instructions which form a completely interconnected subgraph in the
 * branch conflict graph" and notes that other definitions are
 * possible.  Three are implemented:
 *
 * - MaximalClique: enumerate the maximal complete subgraphs of the
 *   thresholded conflict graph (Bron-Kerbosch with pivoting).  Sets
 *   overlap, and a graph can have more sets than nodes -- consistent
 *   with Table 2, where gcc has ~52k working sets over ~16k static
 *   branches.  Worst-case exponential, so capped.
 * - SeededClique: grow one maximal clique greedily (hottest neighbour
 *   first) from every node, then deduplicate.  Overlapping like
 *   MaximalClique but at most one set per node; one AND of bit rows
 *   per member, and the default for Table 2 scale graphs.
 * - GreedyPartition: a disjoint clique cover built hottest-first; each
 *   branch lands in exactly one set.  This is the view the allocator
 *   reasons about.
 * - ConnectedComponent: the loosest definition, an upper bound on set
 *   sizes; used as an ablation.
 *
 * All four run on one view built per call: the nodes with at least
 * one edge, relabelled by heat rank (more executions first, then the
 * lower id), each with a row of neighbour bits -- m * ceil(m / 64)
 * words for m such nodes.  A node without edges is a singleton set
 * under every definition.
 */

#ifndef BWSA_CORE_WORKING_SET_HH
#define BWSA_CORE_WORKING_SET_HH

#include <cstdint>
#include <string>
#include <vector>

#include "profile/conflict_graph.hh"

namespace bwsa
{

/** One working set: sorted node ids of its member branches. */
using WorkingSet = std::vector<NodeId>;

/** Which subgraph structure counts as a working set. */
enum class WorkingSetDefinition
{
    MaximalClique,
    SeededClique,
    GreedyPartition,
    ConnectedComponent
};

/** Name of a definition for reports. */
std::string workingSetDefinitionName(WorkingSetDefinition def);

/** Resource caps for the (worst-case exponential) clique enumeration. */
struct WorkingSetLimits
{
    /** Stop after reporting this many sets (0 = unlimited). */
    std::size_t max_sets = 100000;

    /**
     * Stop after this many search-tree expansions (0 = unlimited).
     * Near-complete regions with a sprinkle of missing edges --
     * borderline branches whose counts straddle the threshold -- have
     * exponentially many maximal cliques, so a cap is mandatory for
     * production graphs; results are flagged truncated.
     */
    std::uint64_t max_expansions = 2000000;
};

/** Extraction output. */
struct WorkingSetResult
{
    std::vector<WorkingSet> sets;

    /** True when a resource cap truncated the enumeration. */
    bool truncated = false;

    /** Search-tree expansions used (MaximalClique only). */
    std::uint64_t expansions = 0;
};

/**
 * Extract working sets from an already-thresholded conflict graph.
 *
 * A node with no surviving edges is a singleton set under every
 * definition, so all definitions cover every node.  Each set is
 * sorted by id; seeded sets come in first-seen seed order, partition
 * sets in heat order and components in order of their smallest id.
 */
WorkingSetResult
findWorkingSets(const ConflictGraph &graph, WorkingSetDefinition def,
                const WorkingSetLimits &limits = {});

/** Summary statistics in Table 2's terms. */
struct WorkingSetStats
{
    std::size_t total_sets = 0;

    /** Unweighted mean of set sizes ("average static size"). */
    double avg_static_size = 0.0;

    /**
     * Mean set size weighted by the total dynamic execution count of
     * each set's members ("average dynamic size").
     */
    double avg_dynamic_size = 0.0;

    /** Largest set observed. */
    std::size_t max_size = 0;
};

/** Compute Table 2 statistics for an extraction. */
WorkingSetStats computeWorkingSetStats(const ConflictGraph &graph,
                                       const WorkingSetResult &result);

} // namespace bwsa

#endif // BWSA_CORE_WORKING_SET_HH
