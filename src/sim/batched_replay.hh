/**
 * @file
 * Single-pass batched predictor replay: the one replay engine of the
 * benches, examples and tools.
 *
 * Each predictor configuration becomes a *lane* whose tables live in
 * packed flat arrays owned by the replayer (histories as `uint32_t`
 * patterns, saturating counters as raw `uint8_t` values), and the
 * record loop steps every lane through a kind switch -- no virtual
 * dispatch, no per-entry objects.  Every PredictorKind is a flat
 * lane: composite kinds are lanes built from lanes (a tournament is a
 * bimodal and a gshare sub-lane plus a chooser table; a
 * static-filtered PAg is a static-direction map in front of a PAg
 * sub-lane), so no step arithmetic is duplicated.
 *
 * Lanes are described by PredictorSpec (predict/factory.hh), which
 * also validates them and names them.  The predictor objects under
 * tests/reference are the oracle the lanes are tested against, down
 * to per-branch ratios and the BHT interference probe.
 */

#ifndef BWSA_SIM_BATCHED_REPLAY_HH
#define BWSA_SIM_BATCHED_REPLAY_HH

#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "obs/phase_detect.hh"
#include "obs/timeseries.hh"
#include "predict/factory.hh"
#include "predict/interference.hh"
#include "trace/trace.hh"
#include "util/stats.hh"

namespace bwsa
{

/** Outcome of replaying one predictor over one trace. */
struct PredictionStats
{
    std::string predictor_name;

    /** Aggregate misprediction ratio. */
    RatioStat mispredicts;

    /** Per-static-branch misprediction ratios (when requested). */
    std::unordered_map<BranchPc, RatioStat> per_branch;

    /** Misprediction rate in percent, the paper's reporting unit. */
    double mispredictPercent() const { return mispredicts.percent(); }

    /** Prediction accuracy in percent. */
    double
    accuracyPercent() const
    {
        return 100.0 - mispredicts.percent();
    }
};

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
     * Attach a BHT interference probe to this lane.  Honoured for the
     * three PAg kinds; ignored for every other kind, a static-filtered
     * PAg included.
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
     * Add one predictor lane built from @p spec; panics on a spec
     * validatePredictorSpec() rejects.  Returns the lane index, in
     * add order.
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

    /** Statistics of one lane. */
    const PredictionStats &stats(std::size_t lane) const;

    /** All lane statistics, in add order. */
    std::vector<PredictionStats> allStats() const;

    /** The lane's interference probe; nullptr when none attached. */
    const BhtInterferenceProbe *probe(std::size_t lane) const;

    /** Predictor name of one lane (predictorName() of its spec). */
    const std::string &laneName(std::size_t lane) const;

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
 * statistics in input order.
 */
std::vector<PredictionStats>
replayBatched(const TraceSource &source,
              const std::vector<PredictorSpec> &specs,
              bool per_branch = false);

} // namespace bwsa

#endif // BWSA_SIM_BATCHED_REPLAY_HH
