/**
 * @file
 * End-to-end branch allocation pipeline.
 *
 * Packages the full compiler-side flow the paper describes: profile
 * one or more runs (cumulative profiles merge into one conflict
 * graph), reduce the static branch population by dynamic frequency
 * (Table 1), and hand the graph to the allocator to produce a BHT
 * assignment or a required-size measurement.  The emitted
 * PredictorSpec plugs straight into the trace simulator.
 *
 * Profiling is driven through ProfileSession, which makes the two
 * passes of a profile run explicit: a statistics pass picks the
 * frequency-selected branch set, commit() closes it, and one
 * interleave pass (serial, or sharded across a thread pool) builds
 * the run's conflict graph before finish() merges it into the
 * pipeline.
 * StreamingProfileSession profiles records as they arrive.
 */

#ifndef BWSA_CORE_PIPELINE_HH
#define BWSA_CORE_PIPELINE_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>

#include "core/allocation.hh"
#include "obs/phase_detect.hh"
#include "predict/factory.hh"
#include "profile/interleave.hh"
#include "profile/shard.hh"
#include "store/profile_artifact.hh"
#include "trace/frequency_filter.hh"
#include "trace/trace.hh"
#include "trace/trace_stats.hh"

namespace bwsa
{

class ProfileSession;

/** Pipeline configuration. */
struct PipelineConfig
{
    /** Interleave analysis knobs. */
    InterleaveConfig interleave;

    /** Allocator knobs (threshold, classification). */
    AllocationConfig allocation;

    /**
     * Fraction of the dynamic branch stream the retained static
     * branches must cover (Table 1; 0.999 keeps 99.9%).  1.0 disables
     * the reduction.
     */
    double coverage = 0.999;

    /** Optional cap on retained static branches (0 = none). */
    std::size_t max_static = 0;
};

/**
 * Accumulates profiles and produces allocations.
 */
class AllocationPipeline
{
  public:
    explicit AllocationPipeline(const PipelineConfig &config = {});

    /** Number of profile runs merged so far. */
    std::size_t profileCount() const { return _profiles; }

    /** Cumulative conflict graph (frequency-filtered branches only). */
    const ConflictGraph &graph() const { return _graph; }

    /**
     * Whole-stream statistics of the most recent profile run.
     * Fatal before the first committed statistics pass: the collector
     * would otherwise be an empty dummy that silently reads as "the
     * trace had no branches".
     */
    const TraceStatsCollector &lastStats() const;

    /**
     * Frequency selection of the most recent profile run.  Fatal
     * before the first committed statistics pass (see lastStats()).
     */
    const FrequencySelection &lastSelection() const;

    /** True once lastStats()/lastSelection() are safe to read. */
    bool hasProfileData() const { return _stats_valid; }

    /**
     * Merge a previously captured profile run -- statistics,
     * frequency selection, and run conflict graph -- as if a
     * ProfileSession had just produced them.  This is how the
     * persistence layer replays a cached profile: the run counts
     * toward profileCount() and lastStats()/lastSelection() expose
     * the imported data.
     */
    void importProfile(const TraceStatsCollector &stats,
                       const FrequencySelection &selection,
                       const ConflictGraph &graph);

    /**
     * Allocate the cumulative graph into @p table_size entries.  The
     * allocator's filtered view of the graph is built on first use
     * and cached until the graph changes (finish()/importProfile()),
     * so colouring one profile at several sizes filters it once.
     * Safe to call concurrently with other const members.
     */
    AllocationResult allocate(std::uint64_t table_size) const;

    /** Run the Table 3/4 required-size search (cached view too). */
    RequiredSizeResult
    requiredSize(std::uint64_t baseline_entries = 1024,
                 std::uint64_t max_entries = 4096) const;

    /**
     * PredictorSpec for a branch-allocation PAg with @p table_size
     * BHT entries (paper-default history and PHT sizes).
     */
    PredictorSpec predictorSpec(std::uint64_t table_size) const;

    /**
     * PredictorSpec implementing the Section 5.2 ISA option: branches
     * the profile classifies as highly biased are statically
     * predicted in their bias direction, and only the mixed branches
     * go through an allocation-indexed PAg of @p table_size entries.
     * Requires classification to be enabled in the config.
     */
    PredictorSpec staticFilterSpec(std::uint64_t table_size) const;

    const PipelineConfig &config() const { return _config; }

  private:
    friend class ProfileSession;

    /** The cached filtered view of _graph, built on first use. */
    std::shared_ptr<const FilteredGraph> filtered() const;

    /** Drop the cached view; call whenever _graph changes. */
    void graphChanged();

    PipelineConfig _config;
    ConflictGraph _graph;
    mutable std::mutex _filtered_mutex;
    mutable std::shared_ptr<const FilteredGraph> _filtered;
    TraceStatsCollector _stats;
    FrequencySelection _selection;
    std::size_t _profiles = 0;
    bool _stats_valid = false;
};

/**
 * One profile run against an AllocationPipeline, with the two passes
 * of the analysis exposed as explicit phases:
 *
 *   1. *Statistics* -- replay sources with addStats(); multiple
 *      inputs accumulate.  commit() closes the phase by computing the
 *      frequency selection.
 *   2. *Interleave* -- one addInterleave() pass over one source,
 *      frequency-filtered through the committed selection and
 *      optionally sharded across a thread pool.
 *
 * finish() merges the run's conflict graph into the pipeline and
 * bumps profileCount().  A session abandoned before finish() leaves
 * the pipeline's cumulative graph untouched (the committed statistics
 * remain visible through lastStats()).  Phase misuse -- interleave
 * input before commit(), a second interleave pass, input after
 * finish() -- is fatal.  Drive at most one session per pipeline at a
 * time.
 */
class ProfileSession
{
  public:
    /** Opens the statistics phase; @p pipeline must outlive this. */
    explicit ProfileSession(AllocationPipeline &pipeline);

    ProfileSession(const ProfileSession &) = delete;
    ProfileSession &operator=(const ProfileSession &) = delete;

    /** Replay @p source into the statistics phase. */
    void addStats(const TraceSource &source);

    /**
     * Close the statistics phase: compute the frequency selection
     * from everything added so far and open the interleave phase.
     *
     * @return the committed selection (owned by the pipeline)
     */
    const FrequencySelection &commit();

    /**
     * The session's one interleave pass (profileTraceSharded): split
     * @p source into @p shards contiguous segments profiled in
     * parallel on @p threads workers (0 = hardware threads), then
     * stitch the segment boundaries (see shard.hh).  One shard is the
     * plain serial pass; the run graph is identical for any shard
     * count.  With more than one shard, @p source must tolerate
     * concurrent replayRange() calls (MemoryTrace and
     * store::BlockTraceReader both do).
     *
     * @return per-shard timings and stitch cost for run reports
     */
    ShardRunStats addInterleave(const TraceSource &source,
                                unsigned shards = 1,
                                unsigned threads = 0);

    /** Merge the run graph into the pipeline; closes the session. */
    void finish();

    /** True once commit() has run. */
    bool committed() const { return _committed; }

    /** True once finish() has run. */
    bool finished() const { return _finished; }

  private:
    AllocationPipeline &_pipeline;
    ConflictGraph _run_graph;
    bool _committed = false;
    bool _interleaved = false;
    bool _finished = false;
};

/** Knobs of one incremental streaming session. */
struct StreamingSessionConfig
{
    /**
     * Interleave window bound (InterleaveConfig::max_window; 0 =
     * unbounded), the one analysis value a stream uses.  A session
     * sees each record exactly once, so the frequency reduction is
     * absent (its snapshot selection keeps every branch), and it owns
     * its phase accumulator (phase_interval below).
     */
    std::size_t max_window = InterleaveConfig{}.max_window;

    /**
     * Approximate resident-state bound, in bytes; an append that
     * leaves the session above it spills the epoch graph into
     * @p spill_cache, and accumulation continues into an empty graph
     * (the tracker stays warm).  The statistics and the tracker
     * window are never spilled, so the bound holds only while they
     * fit under it.  0 = unbounded.
     */
    std::uint64_t max_resident_bytes = 0;

    /**
     * Shared artifact cache receiving spilled epochs (required when
     * max_resident_bytes > 0; not owned).  The cache's LRU cap must
     * comfortably exceed a session's total spilled state -- an
     * evicted epoch is unrecoverable, and snapshot() and finish()
     * then throw std::runtime_error (the session stays open).
     */
    store::ArtifactCache *spill_cache = nullptr;

    /**
     * Spill key namespace, unique per live session (e.g.
     * "tenant3/session17"); required when spilling is enabled.
     */
    std::string spill_scope;

    /**
     * Working-set window width of the online phase detector, in
     * timestamp units; 0 disables phase detection.  The session owns
     * its accumulator/detector pair and feeds it continuously, so the
     * timeline over any block partitioning is the serial timeline.
     */
    std::uint64_t phase_interval = 0;

    /** Detector knobs (threshold, hysteresis, min length). */
    obs::PhaseDetectorConfig phase_config;
};

/**
 * One live phase boundary observed by a streaming session: phase
 * @p index opened at @p start_ts because window similarity dropped to
 * @p similarity.  The serve daemon pushes these to clients as
 * PhaseEvent frames the moment the block that crossed the boundary is
 * ingested.
 */
struct StreamingPhaseEvent
{
    std::uint64_t index = 0;         ///< newly opened phase index
    std::uint64_t start_ts = 0;      ///< its first window start
    std::uint64_t prev_start_ts = 0; ///< previous phase start
    double similarity = 0.0;         ///< boundary window similarity

    bool operator==(const StreamingPhaseEvent &) const = default;
};

/**
 * Incremental profiling session: the batch ProfileSession redesigned
 * around block arrival.  Records stream in as v2-framed blocks
 * (appendBlock), the conflict graph updates as each block lands, and
 * snapshot() serves the full profile -- statistics, selection and
 * graph, ready for allocateBranches() -- at any point without ending
 * the session.
 *
 * Exactness: the session feeds every record to one warm
 * InterleaveTracker -- the serial tracker -- and flushes it into the
 * epoch graph after each block (InterleaveTracker::onEnd() may
 * repeat; the window persists).  The graph after any appendBlock() is
 * therefore byte-identical to a batch ProfileSession over the records
 * seen so far, for any block partitioning (asserted by
 * tests/test_serve.cc).
 *
 * Bounded memory: with max_resident_bytes set, an append that leaves
 * the session over its bound spills the epoch graph into the
 * artifact cache, and snapshot() folds the epochs back in arrival
 * order.  Only the statistics and the tracker window stay resident
 * across a spill; the next flush restores every tracker slot into the
 * fresh graph in slot order, so the fold keeps serial node ids.
 *
 * Misuse (input after finish(), non-ascending timestamps) is fatal;
 * validating untrusted input is the service layer's job
 * (serve/service.hh), which rejects bad frames with protocol errors
 * before they reach the session.
 */
class StreamingProfileSession
{
  public:
    explicit StreamingProfileSession(StreamingSessionConfig config);

    StreamingProfileSession(const StreamingProfileSession &) = delete;
    StreamingProfileSession &
    operator=(const StreamingProfileSession &) = delete;

    ~StreamingProfileSession();

    /**
     * Ingest one block of records (in trace order, strictly
     * ascending timestamps across the whole session).  Empty blocks
     * are no-ops.
     */
    void appendBlock(const BranchRecord *records, std::size_t count);

    void
    appendBlock(const std::vector<BranchRecord> &records)
    {
        appendBlock(records.data(), records.size());
    }

    /**
     * The profile over everything appended so far, identical to what
     * a batch ProfileSession (same window, coverage 1.0) would
     * produce from the same records.  Does not end the session;
     * spilled epochs are folded back without disturbing resident
     * state.  Throws std::runtime_error when a spilled epoch was
     * evicted from the cache.
     */
    store::ProfileArtifact snapshot();

    /**
     * Final snapshot; closes the session and drops its spilled
     * epochs from the cache.  Further input is fatal.  Throws like
     * snapshot(), leaving the session open.
     */
    store::ProfileArtifact finish();

    std::uint64_t recordCount() const { return _records; }

    std::uint64_t blockCount() const { return _blocks; }

    /** Highest timestamp ingested (0 before any record). */
    std::uint64_t lastTimestamp() const { return _last_timestamp; }

    /** Epochs spilled into the cache so far. */
    std::uint64_t spilledEpochs() const { return _epochs; }

    /** Rough resident footprint driving the spill decision. */
    std::uint64_t residentBytes() const;

    bool finished() const { return _finished; }

    const StreamingSessionConfig &config() const { return _config; }

    /** True when the config enabled online phase detection. */
    bool phasesEnabled() const { return _phase_accum != nullptr; }

    /**
     * Drain the phase boundaries crossed since the last drain (or
     * session start).  Only meaningful with phasesEnabled(); finish()
     * flushes the tail window first, so a boundary in the final
     * partial window is delivered by a drain after finish().
     */
    std::vector<StreamingPhaseEvent> takePhaseEvents();

    /**
     * Current phase segmentation (the last phase is still growing
     * before finish()).  Fatal unless phasesEnabled().
     */
    obs::PhaseTimeline phaseTimeline() const;

  private:
    ConflictGraph mergedGraph();
    void spillEpoch();
    void drainPhaseWindows();
    std::string spillKey(std::uint64_t epoch) const;

    StreamingSessionConfig _config;
    TraceStatsCollector _stats;
    ConflictGraph _graph; ///< current epoch's graph
    /** The session's one tracker, flushing into _graph per block. */
    InterleaveTracker _tracker;
    std::uint64_t _records = 0;
    std::uint64_t _blocks = 0;
    std::uint64_t _last_timestamp = 0;
    std::uint64_t _epochs = 0;
    bool _finished = false;

    /** Online phase detection (null unless phase_interval > 0). */
    std::unique_ptr<obs::PhaseAccumulator> _phase_accum;
    std::unique_ptr<obs::PhaseDetector> _phase_detector;
    std::vector<StreamingPhaseEvent> _phase_events;
};

} // namespace bwsa

#endif // BWSA_CORE_PIPELINE_HH
