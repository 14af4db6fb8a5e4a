/**
 * @file
 * Branch allocation (Section 5): compiler-assigned BHT indices via
 * graph coloring of the branch conflict graph.
 *
 * The allocator follows a Chaitin/Briggs register allocator with one
 * crucial difference the paper calls out: there is no spilling.  When
 * a working set holds more branches than the table, extra branches
 * simply *share* an entry, and the allocator picks the sharers and
 * entries so that the interleave weight landing on any one entry is
 * minimized.
 *
 * Two conflict metrics drive the size experiments of Tables 3 and 4:
 * the baseline metric is the interleave weight of thresholded edges
 * that a conventional PC-modulo indexing maps to the same entry, and
 * the allocation residual is the same sum under the allocator's
 * assignment (with same-class biased edges neutralized when
 * classification is on).  The "required table size" is the smallest
 * table whose allocation residual is no worse than the conventional
 * 1024-entry baseline.
 */

#ifndef BWSA_CORE_ALLOCATION_HH
#define BWSA_CORE_ALLOCATION_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/classification.hh"
#include "profile/conflict_graph.hh"

namespace bwsa
{

/**
 * How the allocator picks the node to optimistically push when no
 * remaining node is trivially colorable (the "share candidate").
 */
enum class SharePolicy
{
    FewestConflicts, ///< paper's rule: minimum incident interleave
    LowestDegree     ///< classic Chaitin-style: fewest neighbours
};

/** Allocator knobs. */
struct AllocationConfig
{
    /** Conflict-edge pruning threshold (paper default 100). */
    std::uint64_t edge_threshold = 100;

    /** Share-candidate selection rule. */
    SharePolicy share_policy = SharePolicy::FewestConflicts;

    /** Enable the Section 5.2 classification refinement. */
    bool use_classification = false;

    /** Bias cutoff of the classifier (paper: 0.99). */
    double bias_cutoff = 0.99;

    /** Instruction alignment shift for the PC-modulo baseline. */
    unsigned insn_shift = 3;
};

/** One complete BHT assignment. */
struct AllocationResult
{
    /** Static branch -> BHT entry. */
    std::unordered_map<BranchPc, std::uint32_t> assignment;

    /** Table size the assignment targets. */
    std::uint64_t table_size = 0;

    /** Entries set aside for the two biased classes (0 or 2). */
    std::uint32_t reserved_entries = 0;

    /**
     * Sum of thresholded interleave weight between branches sharing
     * an entry (same-class biased edges excluded when classification
     * is on).  Lower is better; 0 means interference-free.
     */
    std::uint64_t residual_conflict = 0;

    /** Branches that had to share an entry with a conflicting one. */
    std::size_t shared_nodes = 0;
};

/**
 * The allocator's view of a conflict graph: the edges it must honour
 * (at or above the threshold and, with classification on, not
 * between two branches of the same biased class) as a sorted
 * adjacency, plus every node's class and its colorable degree and
 * incident weight.  It depends only on the graph and the config's
 * threshold and classification fields, not on the table size, so
 * callers coloring one graph at several sizes build it once.
 */
struct FilteredGraph
{
    /** Neighbour lists over the kept edges. */
    NeighbourLists adj;

    /** Classification of every node (all Mixed when disabled). */
    std::vector<BranchClass> classes;

    /** Colorable (Mixed) neighbours of each Mixed node; 0 otherwise. */
    std::vector<std::size_t> degree;

    /** Edge weight to those neighbours, summed. */
    std::vector<std::uint64_t> incident;

    std::size_t nodeCount() const { return classes.size(); }
};

/** Build the allocator's view of @p graph under @p config. */
FilteredGraph buildFiltered(const ConflictGraph &graph,
                            const AllocationConfig &config);

/**
 * Color the conflict graph into @p table_size entries.
 *
 * @param graph      raw (unpruned) conflict graph with node counts
 * @param table_size BHT entries available (>= 1; with classification
 *                   at least 3 so mixed branches have a color)
 * @param config     thresholds and classification switches
 */
AllocationResult allocateBranches(const ConflictGraph &graph,
                                  std::uint64_t table_size,
                                  const AllocationConfig &config);

/**
 * As above, with the filtered view prebuilt by
 * buildFiltered(@p graph, @p config).
 */
AllocationResult allocateBranches(const ConflictGraph &graph,
                                  const FilteredGraph &filtered,
                                  std::uint64_t table_size,
                                  const AllocationConfig &config);

/**
 * Baseline conflict metric: thresholded interleave weight mapped to
 * the same entry by conventional PC-modulo indexing into a table of
 * @p table_size entries.
 */
std::uint64_t moduloConflict(const ConflictGraph &graph,
                             std::uint64_t table_size,
                             const AllocationConfig &config);

/** Output of the required-size search (Tables 3 and 4). */
struct RequiredSizeResult
{
    /** Smallest table beating the baseline; 0 when never achieved. */
    std::uint64_t required_entries = 0;

    /** Baseline conflict of the conventional table. */
    std::uint64_t baseline_conflict = 0;

    /** True when some size within the search bound sufficed. */
    bool achieved = false;

    /** The allocation at the required size (valid when achieved). */
    AllocationResult allocation;
};

/**
 * Search for the smallest BHT size at which branch allocation's
 * residual conflict drops to or below the conventional baseline.
 *
 * @param graph            raw conflict graph
 * @param config           allocator knobs
 * @param baseline_entries conventional table size (paper: 1024)
 * @param max_entries      search upper bound
 */
RequiredSizeResult requiredTableSize(const ConflictGraph &graph,
                                     const AllocationConfig &config,
                                     std::uint64_t baseline_entries =
                                         1024,
                                     std::uint64_t max_entries = 4096);

/**
 * As above, with the filtered view prebuilt by
 * buildFiltered(@p graph, @p config).
 */
RequiredSizeResult requiredTableSize(const ConflictGraph &graph,
                                     const FilteredGraph &filtered,
                                     const AllocationConfig &config,
                                     std::uint64_t baseline_entries,
                                     std::uint64_t max_entries);

} // namespace bwsa

#endif // BWSA_CORE_ALLOCATION_HH
