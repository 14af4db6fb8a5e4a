/**
 * @file
 * Sharded parallel profiling engine.
 *
 * The interleave analysis (interleave.hh) is the dominant cost of
 * every table/figure reproduction, and it is inherently serial when
 * run as one pass.  This engine recovers parallelism by splitting the
 * dynamic branch trace into K contiguous segments (TraceSource::
 * segments) and running one cold-started InterleaveTracker per
 * segment on a thread pool.  Before each tracker flushes, a *boundary
 * stitch* adds the interleavings its segment start cut off (derived,
 * not replayed: stitch.hh).  The per-shard graphs then merge: nodes
 * fold in segment order, each shard re-sorts its edges into the
 * merged ids on the pool, and one k-way linear merge folds the
 * sorted runs.
 *
 * Why the result is exact (not an approximation):
 *
 *   The tracking window invariantly holds the max_window most recently
 *   executed distinct branches in last-execution order.  Within a
 *   segment, a cold tracker's window is exactly the serial tracker's
 *   window restricted to branches that have already executed inside
 *   the segment (pre-boundary leftovers always sit at the
 *   least-recent end and are evicted first), so every pair increment
 *   whose anchor (the re-executing branch's previous instance) lies
 *   inside the segment is produced identically by the cold tracker.
 *   The only missing increments are those anchored *before* the
 *   segment: the first in-segment occurrence of a branch that was
 *   still inside the serial window at the boundary.
 *
 *   The boundary window itself composes from per-shard summaries
 *   without any serial scan: appending segment k's distinct-branch
 *   order to the boundary state before it and keeping the last
 *   max_window entries yields the boundary state after it.  From that
 *   window and the next segment's first-occurrence order (its
 *   tracker's slot order) the stitch derives every missing increment
 *   in time proportional to the increments themselves, without
 *   touching the segment's records again.
 *
 * Consequently the sharded graph -- node order, execution counts and
 * every edge count -- is identical to the serial graph for any shard
 * count, with or without a window bound.
 */

#ifndef BWSA_PROFILE_SHARD_HH
#define BWSA_PROFILE_SHARD_HH

#include <cstdint>
#include <vector>

#include "profile/interleave.hh"
#include "trace/frequency_filter.hh"
#include "trace/trace.hh"

namespace bwsa
{

/** Configuration of one sharded profiling run. */
struct ShardConfig
{
    /** Number of trace segments (1 = plain serial profiling). */
    unsigned shards = 1;

    /**
     * Worker threads for the shard pass; 0 = min(shards, hardware
     * threads).  Never more threads than shards are started.
     */
    unsigned threads = 0;

    /** Interleave analysis knobs, applied to every shard. */
    InterleaveConfig interleave;

    /**
     * Optional frequency selection: when set, every shard pass sees
     * only the selected branches, exactly like the pipeline's
     * filtered profiling.  Not owned; must outlive the run.
     */
    const FrequencySelection *selection = nullptr;
};

/** Wall time and volume of one shard of the parallel pass. */
struct ShardTiming
{
    std::size_t index = 0;        ///< segment position
    unsigned worker = 0;          ///< executing pool worker
    std::uint64_t records = 0;    ///< raw records in the segment
    std::uint64_t increments = 0; ///< pair increments performed
    double millis = 0.0;          ///< wall time of the pass and flush
};

/** Cost and volume of the boundary stitches. */
struct StitchStats
{
    std::uint64_t boundaries = 0;      ///< boundaries stitched
    std::uint64_t records_scanned = 0; ///< always 0: nothing replays
    std::uint64_t pair_increments = 0; ///< recovered edge increments

    /**
     * Summed wall time of the per-boundary derivations.  They run
     * concurrently, so this is total work, not elapsed time.
     */
    double millis = 0.0;
};

/** Everything a run report wants to know about one sharded profile. */
struct ShardRunStats
{
    unsigned shards = 1;               ///< segments actually used
    unsigned threads = 1;              ///< pool workers used
    std::vector<ShardTiming> timings;  ///< per-shard, segment order
    StitchStats stitch;                ///< boundary repair cost
    double merge_millis = 0.0;         ///< node fold + edge merge
    double total_millis = 0.0;         ///< whole engine wall time
};

/**
 * Profile @p source into @p graph across config.shards segments.
 * The graph must be empty; after the call it is identical to the
 * graph a serial InterleaveTracker pass would produce.  One shard
 * (or a stream too short to split) runs that serial pass: one
 * tracker behind the optional frequency filter, flushed once.
 *
 * @return per-shard timings and stitch cost for run reports
 */
ShardRunStats profileTraceSharded(const TraceSource &source,
                                  ConflictGraph &graph,
                                  const ShardConfig &config = {});

/** Convenience: profileTraceSharded() into a fresh graph. */
ConflictGraph profileTrace(const TraceSource &source,
                           const ShardConfig &config = {});

} // namespace bwsa

#endif // BWSA_PROFILE_SHARD_HH
