/**
 * @file
 * Single-pass batched predictor replay: the one replay engine of the
 * benches, examples and tools.
 *
 * Each predictor configuration becomes a *lane* whose tables live in
 * packed flat arrays owned by the replayer (histories as `uint32_t`
 * patterns, saturating counters as raw `uint8_t` values).  Every
 * PredictorKind is a flat lane: composite kinds are lanes built from
 * lanes (a tournament is a bimodal and a gshare sub-lane plus a
 * chooser table; a static-filtered PAg is a static-direction map in
 * front of a PAg sub-lane), so no step arithmetic is duplicated.
 *
 * The record loop is lane-major.  onBlock() interns each pc into a
 * dense *slot* (one open-addressed lookup per record, slots in
 * first-occurrence order) and copies the records straight into a
 * block of at most block_records records (onBranch() is a one-record
 * block).  When the block is full -- or ends early at a phase
 * boundary or at onEnd() -- each lane runs its kind's block loop once
 * over the whole block, writing one miss bit per record.
 * Per-branch side tables (PAg BHT indices, agree bias bits, static
 * directions) are slot-indexed arrays that a lane fills the first time
 * it sees a slot, so the sparse maps behind them are read once per
 * branch, not once per record.  Per-branch ratios, the miss-rate
 * series, phase bins and foldMisses() callbacks are folds over a
 * block's miss bits.
 *
 * Lanes are described by PredictorSpec (predict/factory.hh), which
 * also validates them and names them.  The predictor objects under
 * tests/reference are the oracle the lanes are tested against, down
 * to per-branch ratios and the BHT interference probe.
 */

#ifndef BWSA_SIM_BATCHED_REPLAY_HH
#define BWSA_SIM_BATCHED_REPLAY_HH

#include <cstdint>
#include <functional>
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

/** The records of one replayed block, in trace order. */
struct ReplayBlock
{
    std::size_t size = 0;
    const BranchPc *pc = nullptr;
    const std::uint64_t *timestamp = nullptr;
};

/**
 * A fold over one lane's misses: called once per replayed block with
 * the block's records and the lane's per-record miss bits
 * (1 = mispredicted).
 */
using LaneMissFold =
    std::function<void(const ReplayBlock &block, const std::uint8_t *miss)>;

/**
 * TraceSink replaying N packed predictor lanes, block by block.
 *
 * Usage: addLane() every configuration, replay() the trace, read
 * stats()/probe() per lane.  Lanes must be added before the first
 * record arrives.  Lane statistics and probes are exact after onEnd()
 * (which replay() delivers); between records they lag by the open
 * block.
 */
class BatchedReplayer : public TraceSink
{
  public:
    /** Records per block: the unit every lane's loop runs over. */
    static constexpr std::size_t block_records = 4096;

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

    /** One-record block. */
    void onBranch(const BranchRecord &record) override;

    /**
     * Append @p records to the open block, replaying it whenever it
     * fills and cutting it at each phase boundary of the timeline.
     */
    void onBlock(std::span<const BranchRecord> records) override;

    /**
     * Replay the open block, then flush whole-replay totals (delta)
     * into the metrics registry.
     */
    void onEnd() override;

    /**
     * Run @p fold over @p lane's miss bits after every block the lane
     * replays.  Must be called before the first record.
     */
    void foldMisses(std::size_t lane, LaneMissFold fold);

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
     * destructive counters are snapshotted at each boundary crossing
     * (a block ends there), and the distinct-PC population of every
     * phase is collected.
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
    struct Block;

    static constexpr std::uint32_t npos = ~std::uint32_t(0);

    /** pc -> slot table entry; slot == npos marks an empty entry. */
    struct SlotEntry
    {
        BranchPc pc = 0;
        std::uint32_t slot = npos;
    };

    void seal();
    std::uint32_t slotFor(BranchPc pc);
    void growSlotTable();
    void replayBlock();
    void advancePhase();

    bool _per_branch;
    bool _sealed = false; ///< records seen; no more addLane()
    std::vector<std::unique_ptr<Lane>> _lanes;

    /** Dense branch slots, in first-occurrence order. */
    std::vector<SlotEntry> _slot_table; ///< power-of-two capacity
    std::vector<BranchPc> _slot_pcs;    ///< slot -> pc

    std::unique_ptr<Block> _block; ///< the open block

    /** Phase attribution (null timeline = disabled). */
    const obs::PhaseTimeline *_timeline = nullptr;
    bool _attribute = false; ///< a nonempty timeline is set
    std::size_t _phase_index = 0;
    std::vector<std::unordered_set<BranchPc>> _phase_pcs;
    /** Per slot: 1 + the last phase whose population holds it. */
    std::vector<std::size_t> _slot_phase;
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
