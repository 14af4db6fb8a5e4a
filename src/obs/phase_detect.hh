/**
 * @file
 * Online phase-boundary detection over the branch working-set stream.
 *
 * The paper's central claim is that branch working sets are small and
 * stable *within* execution regions but shift between them -- yet a
 * whole-trace aggregate cannot tell a phase-local aliasing storm from
 * a uniform low-grade problem.  This header promotes the one-shot
 * shift detector of sim/cluster_analysis.hh into a reusable,
 * mergeable observability component with two halves:
 *
 *   * PhaseAccumulator consumes the (pc, timestamp) stream and folds
 *     it into fixed-width instruction windows, each carrying the
 *     distinct-PC count and the Jaccard similarity against the
 *     previous window's population.  It is the one producer of the
 *     per-window working-set signal: the benches' --timeseries
 *     "<scope>/working_set/{size,jaccard}" series are a view of its
 *     windows(), published after the (possibly sharded) fold.  The
 *     windows themselves stay lossless (no pair-merge downsampling),
 *     so phase boundaries are bit-stable however long the trace runs.
 *
 *   * PhaseDetector segments the window sequence into phases with a
 *     churn threshold, re-arm hysteresis and a minimum-phase-length
 *     guard.  It is a deterministic left-to-right state machine, so
 *     feeding it windows one block at a time (the streaming service)
 *     yields exactly the serial timeline, prefix by prefix.
 *
 * Merge algebra (the shard-fold contract, mirroring
 * BranchTelemetryMap::mergeAppend): the sharded profiler gives each
 * trace segment a cold accumulator and folds them in segment order
 * with mergeAppend().  Windows are timestamp-aligned, so a segment
 * boundary can split a window; each accumulator therefore keeps its
 * open window raw, plus the raw populations of its first two closed
 * windows -- exactly the state a fold needs to (a) union a straddled
 * window and (b) recompute the one or two similarity values whose
 * previous-window population lived in the preceding segment.  A fold
 * over any segmentation is bit-identical to the serial accumulator.
 */

#ifndef BWSA_OBS_PHASE_DETECT_HH
#define BWSA_OBS_PHASE_DETECT_HH

#include <cstdint>
#include <unordered_set>
#include <vector>

namespace bwsa::obs
{

/**
 * Jaccard similarity |a & b| / |a | b| of two PC populations (1.0 for
 * two empty sets).  The intersection and union are exact integer
 * counts, so the result is independent of set iteration order.
 */
double jaccard(const std::unordered_set<std::uint64_t> &a,
               const std::unordered_set<std::uint64_t> &b);

/** One closed working-set window of the phase signal. */
struct PhaseWindowStat
{
    std::uint64_t start = 0;    ///< window start timestamp
    std::uint64_t distinct = 0; ///< distinct PCs in the window
    std::uint64_t samples = 0;  ///< dynamic branches in the window
    /**
     * Jaccard similarity against the previous window's population
     * (1.0 = identical, 0.0 = full turnover).  Meaningless for the
     * first window of a trace (has_similarity false; value 1.0).
     */
    double similarity = 1.0;
    bool has_similarity = false;

    bool operator==(const PhaseWindowStat &) const = default;
};

/**
 * Lossless per-window working-set accumulator with an append-merge.
 *
 * Feed every (pc, timestamp) pair of a trace segment through
 * sample(); timestamps must not decrease within a segment.  Closed
 * windows are immutable once emitted (prefix-stable), so incremental
 * consumers may read windows() between batches.  finish() flushes the
 * final partial window; sample()/mergeAppend() after finish() panic.
 */
class PhaseAccumulator
{
  public:
    /** @param interval window width in timestamp units (>= 1) */
    explicit PhaseAccumulator(std::uint64_t interval);

    /** Feed one dynamic branch; timestamps must not decrease. */
    void sample(std::uint64_t pc, std::uint64_t timestamp);

    /**
     * Fold @p next into this accumulator, where @p next covers the
     * trace segment immediately *after* everything recorded here.
     * Intervals must match and neither side may be finished.  The
     * result is bit-identical to sampling both segments serially.
     */
    void mergeAppend(const PhaseAccumulator &next);

    /** Close the final partial window (idempotent). */
    void finish();

    bool finished() const { return _finished; }

    std::uint64_t interval() const { return _interval; }

    /** Dynamic branches sampled (reconciliation handle). */
    std::uint64_t totalSamples() const { return _total_samples; }

    /** Closed windows so far, in timestamp order. */
    const std::vector<PhaseWindowStat> &windows() const
    {
        return _windows;
    }

    /** Same interval and bit-identical closed-window sequence. */
    bool operator==(const PhaseAccumulator &other) const
    {
        return _interval == other._interval &&
               _windows == other._windows;
    }

  private:
    using KeySet = std::unordered_set<std::uint64_t>;

    void closeOpenWindow();
    void pushStat(const PhaseWindowStat &stat, const KeySet &keys);

    std::uint64_t _interval;
    bool _finished = false;
    std::uint64_t _total_samples = 0;
    std::vector<PhaseWindowStat> _windows;

    /** Open (not yet closed) window. */
    bool _any = false;
    std::uint64_t _open_start = 0;
    std::uint64_t _open_samples = 0;
    KeySet _open_keys;

    /** Population of the last closed window (similarity base). */
    KeySet _prev_keys;
    /**
     * Raw populations of the first two closed windows: when this
     * accumulator is the *appended* side of a fold, these are the
     * only windows whose similarity the merge must recompute.
     */
    KeySet _first_keys;
    KeySet _second_keys;
};

/** Tuning knobs of the phase detector. */
struct PhaseDetectorConfig
{
    /** A window whose similarity drops below this opens a phase. */
    double threshold = 0.4;

    /**
     * Re-arm margin: after a boundary fires, similarity must recover
     * to >= threshold + hysteresis before another boundary may fire,
     * so a sustained churn storm reads as one transition.
     */
    double hysteresis = 0.2;

    /** Minimum phase length in windows before a boundary may fire. */
    std::uint64_t min_windows = 4;

    bool operator==(const PhaseDetectorConfig &) const = default;
};

/** One detected phase: a run of consecutive windows. */
struct Phase
{
    std::uint64_t first_window = 0; ///< index of the first window
    std::uint64_t window_count = 0; ///< windows in the phase
    std::uint64_t start_ts = 0;     ///< first window start
    std::uint64_t end_ts = 0;       ///< last window start + interval
    /**
     * Similarity of the boundary window that opened this phase
     * (1.0 for the first phase, which has no boundary).
     */
    double boundary_similarity = 1.0;

    bool operator==(const Phase &) const = default;
};

/** A full segmentation of a trace into phases. */
struct PhaseTimeline
{
    std::uint64_t interval = 0;
    PhaseDetectorConfig config;
    std::vector<Phase> phases;

    bool operator==(const PhaseTimeline &) const = default;
};

/**
 * Deterministic left-to-right phase segmenter.
 *
 * observe() consumes closed windows in stream order and returns true
 * when the window opened a new phase -- the hook the streaming
 * service uses to push a live PhaseEvent the moment a boundary lands.
 * The timeline over any prefix of the window stream equals the same
 * prefix of the serial timeline (only the final open phase grows).
 */
class PhaseDetector
{
  public:
    /** @param interval window width of the stats fed to observe() */
    explicit PhaseDetector(std::uint64_t interval,
                           const PhaseDetectorConfig &config = {});

    /** Consume the next window; true if it opened a new phase. */
    bool observe(const PhaseWindowStat &stat);

    const PhaseDetectorConfig &config() const { return _config; }

    std::uint64_t windowsObserved() const { return _observed; }

    std::size_t phaseCount() const { return _phases.size(); }

    /** Phases so far; the last one is still open (growing). */
    const std::vector<Phase> &phases() const { return _phases; }

    /** Snapshot of the segmentation over the windows observed. */
    PhaseTimeline timeline() const;

  private:
    std::uint64_t _interval;
    PhaseDetectorConfig _config;
    std::vector<Phase> _phases;
    bool _armed = true;
    std::uint64_t _observed = 0;
};

/**
 * Convenience: segment a whole accumulator (finish() it first so the
 * tail window is included) into a phase timeline.
 */
PhaseTimeline detectPhases(const PhaseAccumulator &accumulator,
                           const PhaseDetectorConfig &config = {});

} // namespace bwsa::obs

#endif // BWSA_OBS_PHASE_DETECT_HH
