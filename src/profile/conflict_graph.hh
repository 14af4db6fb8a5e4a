/**
 * @file
 * The branch conflict graph (Section 4.1, Figure 2).
 *
 * Nodes are static conditional branches annotated with execution and
 * taken counts; an edge between two nodes carries the number of times
 * their execution interleaved during profiling.  The graph is the
 * central artifact of branch working set analysis: working sets are
 * complete subgraphs of its thresholded form, and the branch allocator
 * colors it to assign BHT entries.
 *
 * Edges live in one array of (packed key, count) pairs held sorted by
 * key, with unique keys and no zero counts.  Every bulk writer -- the
 * interleave tracker's flush, graph and shard merges, the artifact
 * parser -- hands over sorted runs that fold in with one linear merge
 * (mergeEdges); pruning is a filter.  The allocator reads one
 * neighbour-list view, NeighbourLists, built from the sorted edges (or
 * a filtered subsequence) without a sort; the working-set definitions
 * build their own bit rows from edges().
 */

#ifndef BWSA_PROFILE_CONFLICT_GRAPH_HH
#define BWSA_PROFILE_CONFLICT_GRAPH_HH

#include <cstdint>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "trace/branch_record.hh"

namespace bwsa
{

/** Dense node index within one ConflictGraph. */
using NodeId = std::uint32_t;

/** Sentinel for "no node". */
constexpr NodeId invalid_node = ~NodeId(0);

/** Per-node profile annotations. */
struct ConflictNode
{
    BranchPc pc = 0;
    std::uint64_t executed = 0;
    std::uint64_t taken = 0;

    /** Fraction of dynamic instances resolved taken. */
    double
    takenRate() const
    {
        return executed ? static_cast<double>(taken) /
                              static_cast<double>(executed)
                        : 0.0;
    }
};

/**
 * Compressed neighbour lists of an undirected graph: node v's
 * neighbours, strictly ascending, are targets[offsets[v],
 * offsets[v + 1]), and weights[k] is the interleave count of the edge
 * to targets[k].  Built by neighbourLists().
 */
struct NeighbourLists
{
    std::vector<std::size_t> offsets{0};
    std::vector<NodeId> targets;
    std::vector<std::uint64_t> weights;

    std::size_t nodeCount() const { return offsets.size() - 1; }

    /** Node @p v's neighbours, ascending. */
    std::span<const NodeId>
    of(NodeId v) const
    {
        return {targets.data() + offsets[v], targets.data() + offsets[v + 1]};
    }
};

/**
 * Undirected multigraph-with-counters over static branches.
 */
class ConflictGraph
{
  public:
    /** One edge: packed (min_id, max_id) key and interleave count. */
    using Edge = std::pair<std::uint64_t, std::uint64_t>;

    ConflictGraph() = default;

    /** Node id for @p pc, creating the node on first sight. */
    NodeId addOrGetNode(BranchPc pc);

    /** Node id for @p pc, or invalid_node when absent. */
    NodeId findNode(BranchPc pc) const;

    /**
     * Add @p count interleavings between two distinct nodes: a binary
     * search, then an increment or an insertion into the sorted edge
     * array (O(E) worst case).  The single-edge primitive; bulk
     * writers build sorted runs and call mergeEdges().
     */
    void addInterleave(NodeId a, NodeId b, std::uint64_t count = 1);

    /**
     * Add @p executed executions (@p taken of them taken) to the node
     * of @p pc, creating it on first sight.  Calling this for
     * distinct PCs in sequence assigns sequential ids, which is what
     * the interleave tracker's flush and the persistence layer rely
     * on to produce first-occurrence / round-tripped node ids.
     */
    NodeId restoreNode(BranchPc pc, std::uint64_t executed,
                       std::uint64_t taken);

    /** Interleave count between two nodes (0 when no edge). */
    std::uint64_t interleaveCount(NodeId a, NodeId b) const;

    /** Number of nodes. */
    std::size_t nodeCount() const { return _nodes.size(); }

    /** Number of distinct edges. */
    std::size_t edgeCount() const { return _edges.size(); }

    /** Node annotations. */
    const ConflictNode &node(NodeId id) const;

    /** All nodes in id order. */
    const std::vector<ConflictNode> &nodes() const { return _nodes; }

    /**
     * All edges, sorted by packed key (min_id, max_id): keys strictly
     * ascending, no self edges, no zero counts.
     */
    const std::vector<Edge> &edges() const { return _edges; }

    /** Pack two distinct node ids into an edge key (order-free). */
    static std::uint64_t
    packEdge(NodeId a, NodeId b)
    {
        if (a > b)
            std::swap(a, b);
        return (static_cast<std::uint64_t>(a) << 32) | b;
    }

    /** Unpack an edge key into its two node ids. */
    static std::pair<NodeId, NodeId>
    unpackEdge(std::uint64_t key)
    {
        return {static_cast<NodeId>(key >> 32),
                static_cast<NodeId>(key & 0xffffffffu)};
    }

    /**
     * Copy of this graph with every edge below @p threshold removed
     * (Section 4.2's refinement; nodes are kept even if isolated).
     */
    ConflictGraph pruned(std::uint64_t threshold) const;

    /**
     * Merge @p other into this graph: node counts and edge counts add
     * up, matching the paper's cumulative multi-input profiles
     * (Section 5.2).
     */
    void mergeFrom(const ConflictGraph &other);

    /**
     * Fold sorted edge runs into this graph: one k-way linear merge
     * of the runs and the current edges, adding counts of equal keys.
     * Each run must hold strictly ascending keys of existing, distinct
     * nodes with nonzero counts (misuse panics).
     */
    void mergeEdges(std::vector<std::vector<Edge>> runs);

    /**
     * The k-way merge behind mergeEdges(): one sorted run holding
     * every key of the sorted @p runs, counts of equal keys added.
     * Unchecked; callers that split the key space merge each range
     * with it and hand the concatenation to mergeEdges().
     */
    static std::vector<Edge>
    mergeRuns(const std::vector<std::span<const Edge>> &runs);

    /** Total dynamic executions over all nodes. */
    std::uint64_t totalExecutions() const { return _total_executions; }

  private:
    /**
     * @p edges with both endpoints translated through @p remap (an
     * injective id map into a graph of @p node_count nodes), sorted
     * by the new keys.  A strictly increasing map keeps the order and
     * costs one pass; any other map costs a two-pass LSD counting
     * sort (by max id, then stably by min id), O(E + node_count).
     */
    static std::vector<Edge> remapEdges(const std::vector<Edge> &edges,
                                        const std::vector<NodeId> &remap,
                                        std::size_t node_count);

    std::vector<ConflictNode> _nodes;
    std::unordered_map<BranchPc, NodeId> _pc_to_node;
    std::vector<Edge> _edges; ///< sorted by key, see edges()
    std::uint64_t _total_executions = 0;
};

/**
 * Neighbour lists of a @p node_count node graph over @p edges: one
 * counting pass and one fill pass.  Precondition: @p edges is
 * ConflictGraph::edges() of such a graph or a subsequence of it, so
 * keys ascend by (min id, max id).  Each node then receives its
 * smaller neighbours first, in ascending order, and then its larger
 * ones, in ascending order, which leaves every list sorted without a
 * sort.
 */
NeighbourLists neighbourLists(std::span<const ConflictGraph::Edge> edges,
                              std::size_t node_count);

} // namespace bwsa

#endif // BWSA_PROFILE_CONFLICT_GRAPH_HH
