/**
 * @file
 * Single-pass batched predictor replay: the one replay engine of the
 * benches, examples and tools.
 *
 * The reference fan-out, comparePredictors(), feeds N predictors from
 * one trace decode, but every prediction goes through two virtual
 * calls (predict()/update()) per predictor per record, and each
 * predictor object scatters its tables across
 * SatCounter/HistoryRegister vectors of small structs.  The batched
 * replayer flattens both costs: each predictor configuration becomes a *lane* whose BHT and
 * PHT live in packed flat arrays owned by the replayer (histories as
 * `uint16_t` patterns, saturating counters as raw `uint8_t` values),
 * and the record loop steps every lane through a kind switch -- no
 * virtual dispatch, no per-entry objects, all lane state contiguous.
 *
 * Lanes are described by the same PredictorSpec the factory consumes,
 * so anything the benches can build they can also batch.  The flat
 * step loop covers the whole paper zoo (always-taken/not-taken,
 * bimodal, GAg, gshare, agree, PAg with modulo/allocated/ideal
 * indexing, PAs); specs outside it (tournament, static-filtered, or
 * histories wider than 16 bits) transparently fall back to a generic
 * lane that drives the real Predictor object, so batched replay is
 * *always* available and always produces results byte-identical to
 * comparePredictors(), which stays as the test oracle only.
 *
 * Instrumentation: per-lane per-branch ratio maps and the BHT
 * interference probe (for PAg lanes) match PredictionSim and
 * PAgPredictor::enableInterferenceProbe() exactly; lanes can also
 * publish a windowed miss-rate time series.
 */

#ifndef BWSA_SIM_BATCHED_REPLAY_HH
#define BWSA_SIM_BATCHED_REPLAY_HH

#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "obs/phase_detect.hh"
#include "obs/timeseries.hh"
#include "predict/factory.hh"
#include "predict/interference.hh"
#include "sim/bpred_sim.hh"
#include "trace/trace.hh"

namespace bwsa
{

/**
 * Per-phase attribution of one predictor lane (one entry per phase
 * of the timeline handed to BatchedReplayer::setPhaseTimeline()).
 */
struct LanePhaseBin
{
    std::uint64_t executed = 0;     ///< dynamic branches in the phase
    std::uint64_t mispredicted = 0; ///< lane misses in the phase
    /**
     * Destructive-aliasing events the lane's interference probe
     * attributed to the phase (0 for lanes without a probe).
     */
    std::uint64_t destructive = 0;
};

/** Per-lane options of BatchedReplayer::addLane(). */
struct BatchedLaneOptions
{
    /**
     * Attach a BHT interference probe to this lane.  Honoured for PAg
     * lanes (flat or generic), matching
     * PAgPredictor::enableInterferenceProbe(); ignored for kinds
     * without a shared first-level table.
     */
    bool probe = false;

    /**
     * Time-series scope: when nonempty and the global registry is
     * enabled, the lane publishes its windowed misprediction rate as
     * "<scope>/<predictor name>/miss_rate".  Scopes must be unique
     * per concurrent replayer (sweep cells use their benchmark name)
     * to honor the registry's single-writer contract.
     */
    std::string series_scope;
};

/**
 * TraceSink stepping N packed predictor lanes per record.
 *
 * Usage: addLane() every configuration, replay() the trace, read
 * stats()/probe() per lane.  A replayer is single-use: lanes must be
 * added before the first record arrives.
 */
class BatchedReplayer : public TraceSink
{
  public:
    /** @param per_branch also collect per-static-branch ratios */
    explicit BatchedReplayer(bool per_branch = false);
    ~BatchedReplayer() override;

    BatchedReplayer(const BatchedReplayer &) = delete;
    BatchedReplayer &operator=(const BatchedReplayer &) = delete;

    /**
     * Add one predictor lane built from @p spec (validated through
     * the factory, so malformed specs fail exactly like
     * makePredictor).  Returns the lane index, in add order.
     */
    std::size_t addLane(const PredictorSpec &spec,
                        const BatchedLaneOptions &options = {});

    /**
     * One full trace pass: opens the "sim.batched" span, counts one
     * trace replay (sim.runs) and laneCount() predictor replays
     * (sim.predictor_runs), then replays @p source into this sink.
     */
    void replay(const TraceSource &source);

    void onBranch(const BranchRecord &record) override;

    /** Flush whole-replay totals (delta) into the metrics registry. */
    void onEnd() override;

    std::size_t laneCount() const { return _lanes.size(); }

    /** Statistics of one lane (same shape as PredictionSim). */
    const PredictionStats &stats(std::size_t lane) const;

    /** All lane statistics, in add order (comparePredictors shape). */
    std::vector<PredictionStats> allStats() const;

    /** The lane's interference probe; nullptr when none attached. */
    const BhtInterferenceProbe *probe(std::size_t lane) const;

    /** Predictor name of one lane (identical to Predictor::name()). */
    const std::string &laneName(std::size_t lane) const;

    /**
     * True when the lane runs in the packed flat step loop; false for
     * generic fallback lanes driving a real Predictor object.
     */
    bool laneIsFlat(std::size_t lane) const;

    /**
     * Attribute the replay to the phases of @p timeline (not owned;
     * must stay alive through the replay).  Each record lands in the
     * phase whose [start_ts, next start_ts) range holds its
     * timestamp; per-lane executed/miss counts bin per phase, probe
     * destructive counters are snapshotted at each boundary crossing,
     * and the distinct-PC population of every phase is collected.
     * Must be called before the first record.
     */
    void setPhaseTimeline(const obs::PhaseTimeline *timeline);

    /**
     * Per-phase bins of one lane, aligned with the timeline's phases;
     * empty when no timeline was set.  Valid after onEnd().
     */
    const std::vector<LanePhaseBin> &phaseBins(std::size_t lane) const;

    /**
     * Distinct static branches executed in each phase
     * (lane-independent; the per-phase working set of the trace).
     */
    const std::vector<std::unordered_set<BranchPc>> &phasePcs() const
    {
        return _phase_pcs;
    }

  private:
    struct Lane;

    /** Advance one lane by one record; returns the prediction. */
    static bool step(Lane &lane, BranchPc pc, bool taken);

    void advancePhase();

    bool _per_branch;
    bool _sealed = false; ///< records seen; no more addLane()
    std::vector<std::unique_ptr<Lane>> _lanes;

    /** Phase attribution (null timeline = disabled). */
    const obs::PhaseTimeline *_timeline = nullptr;
    std::size_t _phase_index = 0;
    std::vector<std::unordered_set<BranchPc>> _phase_pcs;
};

/**
 * Build one lane per spec, replay @p source once, return per-lane
 * statistics in input order.  Byte-identical to running the
 * comparePredictors() oracle over makePredictor(spec) instances.
 */
std::vector<PredictionStats>
replayBatched(const TraceSource &source,
              const std::vector<PredictorSpec> &specs,
              bool per_branch = false);

} // namespace bwsa

#endif // BWSA_SIM_BATCHED_REPLAY_HH
