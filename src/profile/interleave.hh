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
 * Implementation: branches are kept in an array ordered by last
 * execution (the *window*).  On a dynamic instance of A, the entries
 * after A's old position are exactly the distinct branches executed
 * since A last ran.  One sequential pass over that suffix increments
 * their counters and shifts them down by one, and A moves to the end.
 * That costs O(k) where k is the number of counters incremented,
 * which is optimal for exact counting, and touches memory in order.
 *
 * A bounded window (max_window) caps the window length: a branch that
 * has not run within the last max_window distinct branches is treated
 * as a fresh occurrence.  Interleavings that long-range are orders of
 * magnitude below the paper's conflict threshold (they accrue at most
 * once per program phase), so the cap changes nothing after pruning
 * while bounding both time and memory on adversarial traces.
 *
 * The tracker owns all of its counters and touches the conflict graph
 * only in onEnd(); pendingGraph() builds the same graph on the side
 * without draining anything.  Branches get tracker-local *slots* in
 * first-occurrence order (an open-addressed pc -> slot table), so a
 * flush into an empty graph assigns node ids equal to the slots.
 * Each slot keeps its executed/taken counts and one directional
 * counter row.  A row starts as a FlatCounterMap and turns into a
 * DenseCounterRow (u32 cells indexed by slot) once its distinct
 * neighbours times 4 reach the live slot count: at that density the
 * 4 B per slot cost no more than the hash row's >= 17 B per entry,
 * and an indexed add replaces a hash probe on the hot path.  A dense
 * row that must widen while below that density turns sparse again
 * (util/flat_counter.hh, DESIGN.md Section 7).
 *
 * The flush turns the directional rows into undirected edges
 * (row[a][b] + row[b][a]) already sorted by edge key -- a counting
 * pass buckets the lower triangle, so no comparison sort runs over
 * dense rows -- and hands them to the graph as one sorted run
 * (ConflictGraph::mergeEdges).
 */

#ifndef BWSA_PROFILE_INTERLEAVE_HH
#define BWSA_PROFILE_INTERLEAVE_HH

#include <cstdint>
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
    /** Tracker-local branch index, in first-occurrence order. */
    using Slot = std::uint32_t;

    /** Sentinel for "no slot". */
    static constexpr Slot npos = ~Slot(0);

    /**
     * @param graph  conflict graph to populate (not owned)
     * @param config analysis knobs
     */
    explicit InterleaveTracker(ConflictGraph &graph,
                               const InterleaveConfig &config = {});

    /** One-record block. */
    void onBranch(const BranchRecord &record) override;

    /** The interleave kernel: one window step per record. */
    void onBlock(std::span<const BranchRecord> records) override;

    /**
     * Flush the counts gathered since the last flush into the
     * conflict graph: nodes (restoreNode, in slot order) first, then
     * edges, as one sorted run.  Called automatically at end of
     * stream; nothing of the stream is visible in the graph before
     * this runs.  May repeat (each call adds only the new counts; the
     * window persists), and is a no-op when nothing was counted since
     * the last flush.  Destructive: the counts are zeroed and the
     * counter rows freed.  A streaming session flushes only when it
     * spills or finishes and reads pendingGraph() in between.
     */
    void onEnd() override;

    /**
     * The graph one onEnd() into an empty graph would produce now
     * (node ids = slots), built on the side: the counts and rows stay
     * as they are, so a later read or flush still sees them.  Empty
     * when nothing was counted since the last flush.
     */
    ConflictGraph pendingGraph() const;

    /** True when counts arrived since the last flush. */
    bool pending() const { return _unflushed; }

    /**
     * Heap bytes held by the counter rows (sparse, dense and spilled
     * cells, by capacity), the pc -> slot table, the per-slot arrays
     * and the window.  O(slots): one size read per row, no cell walk.
     */
    std::uint64_t residentBytes() const;

    /**
     * First half of onEnd(), for callers that merge several trackers'
     * edges at once (the sharded engine): restore the counts since
     * the last flush as graph nodes, in slot order, and return each
     * slot's node id.
     */
    std::vector<NodeId> flushNodes();

    /**
     * Second half of onEnd(): empty the counter rows into one run of
     * undirected edges (row[a][b] + row[b][a]) keyed by @p ids (one
     * distinct node id per slot) and sorted by key, ready for
     * ConflictGraph::mergeEdges().  Touches no graph, so trackers of
     * one graph may drain concurrently.
     */
    std::vector<ConflictGraph::Edge>
    drainEdges(const std::vector<NodeId> &ids);

    /** Window bound this tracker runs with (0 = unbounded). */
    std::size_t maxWindow() const { return _config.max_window; }

    /**
     * Distinct branches seen so far.  Slots are numbered in
     * first-occurrence order, so slot f is the f-th distinct branch
     * of the stream: the boundary stitch (stitch.hh) reads a
     * segment's first-occurrence order straight off the slots.
     */
    std::size_t slotCount() const { return _pcs.size(); }

    /** Slot of @p pc, or npos when the tracker never saw it. */
    Slot slotOf(BranchPc pc) const;

    /**
     * Slot of @p pc, adding one with zero counts outside the window
     * when the tracker never saw it.  For the boundary stitch, after
     * the stream's last record: a branch that runs later would count
     * as an evicted re-entry.
     */
    Slot slotFor(BranchPc pc);

    /**
     * Add one interleaving between @p slot and each of the slots
     * [0, @p prefix) and each slot in @p others -- the increments
     * the boundary stitch derives for one carried-over branch.  The
     * slots must be distinct and differ from @p slot; they land in
     * @p slot's counter row and flush with the rest.
     */
    void addInterleavings(Slot slot, Slot prefix,
                          const std::vector<Slot> &others);

    /** Branches currently inside the tracking window. */
    std::size_t
    windowSize() const
    {
        return _window.size() - _window_begin;
    }

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
    /** Executions since the last flush. */
    struct SlotCounts
    {
        std::uint64_t executed = 0;
        std::uint64_t taken = 0;
    };

    /**
     * Directional counter row of one slot: row[a] counts
     * interleavings recorded while a was the re-executing branch.
     * Both directions of a pair merge into one undirected edge at
     * flush time.  The row is sparse while dense.empty().
     */
    struct CounterRow
    {
        FlatCounterMap sparse;
        DenseCounterRow dense;
    };

    /** pc -> slot table entry; slot == npos marks an empty entry. */
    struct TableEntry
    {
        BranchPc pc = 0;
        Slot slot = npos;
    };

    void growTable();
    void evictHead();

    /**
     * The row walk behind drainEdges() and pendingGraph(): @p rows as
     * one run of undirected edges keyed by @p ids and sorted by key.
     * A mutable @p rows has each row's buffers freed once walked; a
     * const one is left as it was.
     */
    template <typename Rows>
    static std::vector<ConflictGraph::Edge>
    rowEdges(Rows &rows, const std::vector<NodeId> &ids);

    ConflictGraph &_graph;
    InterleaveConfig _config;
    std::vector<TableEntry> _table;

    /** Per slot: pc, flush deltas, counter row, window position. */
    std::vector<BranchPc> _pcs;
    std::vector<SlotCounts> _counts;
    std::vector<CounterRow> _rows;
    std::vector<Slot> _pos; ///< index into _window; npos outside it

    /**
     * Slots by last execution, least recent first; the live window
     * is [_window_begin, size()).  Evictions advance _window_begin
     * and a compaction reclaims the dead prefix once it outgrows the
     * live part.
     */
    std::vector<Slot> _window;
    std::size_t _window_begin = 0;
    bool _unflushed = false; ///< counts arrived since the last flush
    std::uint64_t _evicted_reentries = 0;
    std::uint64_t _pair_increments = 0;

    /** Already flushed to the metrics registry (onEnd may repeat). */
    std::uint64_t _flushed_pair_increments = 0;
    std::uint64_t _flushed_evictions = 0;
};

} // namespace bwsa

#endif // BWSA_PROFILE_INTERLEAVE_HH
