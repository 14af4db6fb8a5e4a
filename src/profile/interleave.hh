/**
 * @file
 * The time-stamp interleave analysis of Section 4.1.
 *
 * During the profile run every dynamic branch instance is stamped with
 * the retired-instruction count.  When branch A executes again, every
 * branch whose last execution is more recent than A's previous
 * execution has interleaved with A, and each such pair's conflict
 * counter is incremented.
 *
 * Implementation: branches are kept in an intrusive doubly-linked list
 * ordered by last execution.  On a dynamic instance of A, the nodes
 * after A's old position are exactly the distinct branches executed
 * since A last ran -- walking that suffix costs O(k) where k is the
 * number of counters incremented, which is optimal for exact counting.
 *
 * A bounded window (max_window) caps the list length: a branch that
 * has not run within the last max_window distinct branches is treated
 * as a fresh occurrence.  Interleavings that long-range are orders of
 * magnitude below the paper's conflict threshold (they accrue at most
 * once per program phase), so the cap changes nothing after pruning
 * while bounding both time and memory on adversarial traces.
 */

#ifndef BWSA_PROFILE_INTERLEAVE_HH
#define BWSA_PROFILE_INTERLEAVE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "profile/conflict_graph.hh"
#include "trace/trace.hh"
#include "util/flat_counter.hh"

namespace bwsa
{

namespace obs
{
class BranchTelemetryMap;
class PhaseAccumulator;
} // namespace obs

/** Tuning knobs of the interleave analysis. */
struct InterleaveConfig
{
    /**
     * Maximum distinct branches tracked at once; 0 means unbounded
     * (the paper's exact semantics; fine for small traces).
     */
    std::size_t max_window = 4096;

    /**
     * Time-series name prefix of the sharded engine's per-shard
     * progress series ("<scope>/shard<i>/progress", see shard.hh).
     * The tracker itself publishes no series: the temporal
     * working-set signal comes from the phase accumulator below.
     */
    std::string series_scope;

    /**
     * Per-branch telemetry accumulator fed one record per dynamic
     * branch the tracker sees (after any frequency filtering).  Not
     * owned; null disables collection entirely.  The sharded engine
     * substitutes a cold local map per segment and folds them back
     * in segment order, so sharded and serial runs fill an identical
     * map (see obs/branch_telemetry.hh).
     */
    obs::BranchTelemetryMap *telemetry = nullptr;

    /**
     * Lossless phase-signal accumulator fed one (pc, timestamp) pair
     * per dynamic branch (see obs/phase_detect.hh).  Not owned; null
     * disables collection.  Like the telemetry map, the sharded
     * engine substitutes a cold accumulator per segment and folds
     * them in segment order; the owner calls finish() after the fold,
     * so the tracker's onEnd() must not.
     */
    obs::PhaseAccumulator *phase = nullptr;
};

/**
 * TraceSink performing the first two steps of branch working set
 * analysis: time-stamp interleave detection plus conflict graph
 * construction.
 */
class InterleaveTracker : public TraceSink
{
  public:
    /**
     * @param graph  conflict graph to populate (not owned)
     * @param config analysis knobs
     */
    explicit InterleaveTracker(ConflictGraph &graph,
                               const InterleaveConfig &config = {});

    void onBranch(const BranchRecord &record) override;

    /**
     * Flush the internal counter buffers into the conflict graph.
     * Called automatically at end of stream; pairwise counts are not
     * visible in the graph before this runs.
     */
    void onEnd() override;

    /** Branches currently inside the tracking window. */
    std::size_t windowSize() const { return _window_size; }

    /**
     * PCs of the branches currently inside the tracking window, in
     * last-execution order (least recent first).  Because the window
     * invariantly holds the max_window most recently executed distinct
     * branches, this is exactly the boundary state the sharded
     * profiling engine composes and stitches with (see shard.hh).
     */
    std::vector<BranchPc> windowPcs() const;

    /** Occurrences treated as fresh because of window eviction. */
    std::uint64_t evictedReentries() const
    {
        return _evicted_reentries;
    }

    /** Total pairwise increments performed (analysis work metric). */
    std::uint64_t pairIncrements() const { return _pair_increments; }

  private:
    struct ListNode
    {
        NodeId prev = invalid_node;
        NodeId next = invalid_node;
        bool in_list = false;
        bool seen = false;
    };

    void ensureNode(NodeId id);
    void unlink(NodeId id);
    void appendTail(NodeId id);
    void evictHead();

    ConflictGraph &_graph;
    InterleaveConfig _config;
    std::vector<ListNode> _list;

    /**
     * Directional per-node counter buffers: _pair_counts[a] counts
     * interleavings recorded while a was the re-executing branch.
     * Both directions of a pair merge into one undirected edge at
     * flush time.  Open addressing here is the profiler's hot path.
     */
    std::vector<FlatCounterMap> _pair_counts;
    NodeId _head = invalid_node;
    NodeId _tail = invalid_node;
    std::size_t _window_size = 0;
    std::uint64_t _evicted_reentries = 0;
    std::uint64_t _pair_increments = 0;

    /** Already flushed to the metrics registry (onEnd may repeat). */
    std::uint64_t _flushed_pair_increments = 0;
    std::uint64_t _flushed_evictions = 0;
};

/**
 * Convenience: profile a whole trace source into a conflict graph.
 */
ConflictGraph profileTrace(const TraceSource &source,
                           const InterleaveConfig &config = {});

} // namespace bwsa

#endif // BWSA_PROFILE_INTERLEAVE_HH
