#include "sim/batched_replay.hh"

#include <utility>

#include "obs/metrics.hh"
#include "obs/phase_tracer.hh"
#include "util/bitfield.hh"
#include "util/logging.hh"

namespace bwsa
{

namespace
{

/** Lane families, one per PredictorKind (the PAg kinds share one). */
enum class LaneKind : std::uint8_t
{
    StaticTaken,
    StaticNotTaken,
    ProfileStatic,
    Bimodal,
    GAg,
    Gshare,
    Agree,
    PAg,
    PAs,
    Tournament,
    StaticFiltered,
};

/** BHT index policy of a PAg lane. */
enum class PagIndexMode : std::uint8_t
{
    Modulo,
    Allocated,
    Ideal,
};

/**
 * Counter handles resolved once: the by-name lookup takes the
 * registry mutex, and parallel sweep cells flush after every replay.
 */
obs::Counter &
branchesCounter()
{
    static obs::Counter counter =
        obs::MetricsRegistry::global().counter("sim.branches");
    return counter;
}

obs::Counter &
mispredictsCounter()
{
    static obs::Counter counter =
        obs::MetricsRegistry::global().counter("sim.mispredicts");
    return counter;
}

obs::Counter &
runsCounter()
{
    static obs::Counter counter =
        obs::MetricsRegistry::global().counter("sim.runs");
    return counter;
}

obs::Counter &
predictorRunsCounter()
{
    static obs::Counter counter =
        obs::MetricsRegistry::global().counter("sim.predictor_runs");
    return counter;
}

/** SatCounter::predictTaken() on a packed counter value. */
inline bool
counterTaken(std::uint8_t value, std::uint8_t max)
{
    return value > (max >> 1);
}

/** SatCounter::update() on a packed counter cell. */
inline void
counterStep(std::uint8_t &value, std::uint8_t max, bool taken)
{
    if (taken) {
        if (value < max)
            ++value;
    } else if (value > 0) {
        --value;
    }
}

/** Shift @p taken into a history pattern of @p mask width. */
inline std::uint32_t
pushHistory(std::uint32_t hist, bool taken, std::uint32_t mask)
{
    return ((hist << 1) | (taken ? 1u : 0u)) & mask;
}

/**
 * The predictor state of one lane in packed (structure-of-arrays)
 * form.
 *
 * The geometry fields are frozen at addLane(); the step loop touches
 * only the flat vectors plus the sparse side maps the predictor
 * consults (allocated assignment, ideal-index ids, agree bias bits,
 * static directions).  Composite kinds keep their components as
 * sub-lanes in `parts`.
 */
struct LaneState
{
    LaneKind kind = LaneKind::StaticTaken;
    PagIndexMode index_mode = PagIndexMode::Modulo;

    // Geometry.
    std::uint64_t bht_entries = 0; ///< modulo divisor; 0 = unbounded
    std::uint64_t pht_size = 0;    ///< PAg PHT / chooser divisor
    std::uint64_t pht_sets = 1;    ///< PAs second-level set count
    std::uint32_t hist_mask = 0;   ///< global or per-address history
    unsigned hist_bits = 0;
    unsigned shift = 3;
    std::uint8_t counter_max = 3;

    // Packed state.
    std::vector<std::uint32_t> bht; ///< per-entry history patterns
    std::vector<std::uint8_t> pht;  ///< saturating counter values
    std::uint32_t ghist = 0;        ///< global history register

    // Sparse per-branch side tables.
    std::unordered_map<BranchPc, std::uint32_t> assignment;
    std::unordered_map<BranchPc, std::uint64_t> ideal_ids;
    std::unordered_map<BranchPc, bool> bias;
    std::unordered_map<BranchPc, bool> directions;

    /** Sub-lanes: tournament {bimodal, gshare}; filtered {PAg}. */
    std::vector<LaneState> parts;

    /** BHT interference probe (top-level PAg lanes only). */
    std::unique_ptr<BhtInterferenceProbe> probe;
};

/** Lane state for a validated @p spec. */
LaneState
buildLane(const PredictorSpec &spec)
{
    LaneState lane;
    lane.shift = spec.insn_shift;
    std::uint8_t mid = 0;
    if (spec.kind != PredictorKind::AlwaysTaken &&
        spec.kind != PredictorKind::AlwaysNotTaken &&
        spec.kind != PredictorKind::ProfileStatic) {
        mid = static_cast<std::uint8_t>((1u << spec.counter_bits) >> 1);
        lane.counter_max =
            static_cast<std::uint8_t>((1u << spec.counter_bits) - 1u);
        lane.hist_bits = spec.history_bits;
        lane.hist_mask =
            static_cast<std::uint32_t>(lowMask(spec.history_bits));
    }

    switch (spec.kind) {
      case PredictorKind::AlwaysTaken:
        lane.kind = LaneKind::StaticTaken;
        break;

      case PredictorKind::AlwaysNotTaken:
        lane.kind = LaneKind::StaticNotTaken;
        break;

      case PredictorKind::ProfileStatic:
        lane.kind = LaneKind::ProfileStatic;
        lane.directions = spec.static_directions;
        break;

      case PredictorKind::Bimodal:
        lane.kind = LaneKind::Bimodal;
        lane.bht_entries = spec.bht_entries;
        lane.pht.assign(spec.bht_entries, mid);
        break;

      case PredictorKind::GAg:
      case PredictorKind::Gshare:
        lane.kind = spec.kind == PredictorKind::GAg ? LaneKind::GAg
                                                    : LaneKind::Gshare;
        lane.pht.assign(std::uint64_t(1) << spec.history_bits, mid);
        break;

      case PredictorKind::Agree:
        lane.kind = LaneKind::Agree;
        // Agree counters start strongly agreeing.
        lane.pht.assign(std::uint64_t(1) << spec.history_bits,
                        lane.counter_max);
        break;

      case PredictorKind::PAgModulo:
      case PredictorKind::PAgAllocated:
      case PredictorKind::PAgIdeal:
        lane.kind = LaneKind::PAg;
        lane.pht_size = spec.pht_entries;
        lane.pht.assign(spec.pht_entries, mid);
        if (spec.kind == PredictorKind::PAgIdeal) {
            lane.index_mode = PagIndexMode::Ideal;
        } else {
            lane.index_mode = spec.kind == PredictorKind::PAgAllocated
                                  ? PagIndexMode::Allocated
                                  : PagIndexMode::Modulo;
            lane.bht_entries = spec.bht_entries;
            lane.bht.assign(spec.bht_entries, 0);
            if (spec.kind == PredictorKind::PAgAllocated)
                lane.assignment = spec.assignment;
        }
        break;

      case PredictorKind::PAs:
        lane.kind = LaneKind::PAs;
        lane.pht_sets = spec.pht_sets;
        lane.bht_entries = spec.bht_entries;
        lane.bht.assign(spec.bht_entries, 0);
        lane.pht.assign(spec.pht_sets << spec.history_bits, mid);
        break;

      case PredictorKind::Tournament:
        lane.kind = LaneKind::Tournament;
        // The chooser: 2-bit counters starting weakly at the first
        // (bimodal) component.
        lane.counter_max = 3;
        lane.pht_size = spec.pht_entries;
        lane.pht.assign(spec.pht_entries, 1);
        break;

      case PredictorKind::StaticFilteredPAg:
        lane.kind = LaneKind::StaticFiltered;
        lane.directions = spec.static_directions;
        break;
    }
    for (const PredictorSpec &part : componentSpecs(spec))
        lane.parts.push_back(buildLane(part));
    return lane;
}

/** Advance one lane by one record; returns the prediction. */
bool
step(LaneState &lane, BranchPc pc, bool taken)
{
    switch (lane.kind) {
      case LaneKind::StaticTaken:
        return true;

      case LaneKind::StaticNotTaken:
        return false;

      case LaneKind::ProfileStatic: {
        // Unprofiled branches are predicted taken.
        auto it = lane.directions.find(pc);
        return it == lane.directions.end() || it->second;
      }

      case LaneKind::Bimodal: {
        std::uint8_t &ctr =
            lane.pht[(pc >> lane.shift) % lane.bht_entries];
        bool predicted = counterTaken(ctr, lane.counter_max);
        counterStep(ctr, lane.counter_max, taken);
        return predicted;
      }

      case LaneKind::GAg: {
        std::uint8_t &ctr = lane.pht[lane.ghist];
        bool predicted = counterTaken(ctr, lane.counter_max);
        counterStep(ctr, lane.counter_max, taken);
        lane.ghist = pushHistory(lane.ghist, taken, lane.hist_mask);
        return predicted;
      }

      case LaneKind::Gshare: {
        std::uint64_t idx =
            (lane.ghist ^ (pc >> lane.shift)) & lane.hist_mask;
        std::uint8_t &ctr = lane.pht[idx];
        bool predicted = counterTaken(ctr, lane.counter_max);
        counterStep(ctr, lane.counter_max, taken);
        lane.ghist = pushHistory(lane.ghist, taken, lane.hist_mask);
        return predicted;
      }

      case LaneKind::Agree: {
        auto it = lane.bias.find(pc);
        // Unknown branch: no bias bit yet, predict taken.
        bool bias = it == lane.bias.end() ? true : it->second;
        std::uint64_t idx =
            (lane.ghist ^ (pc >> lane.shift)) & lane.hist_mask;
        std::uint8_t &ctr = lane.pht[idx];
        bool predicted =
            counterTaken(ctr, lane.counter_max) ? bias : !bias;
        // The bias bit latches the branch's first outcome.
        bool latched = lane.bias.emplace(pc, taken).first->second;
        counterStep(ctr, lane.counter_max, taken == latched);
        lane.ghist = pushHistory(lane.ghist, taken, lane.hist_mask);
        return predicted;
      }

      case LaneKind::PAg: {
        std::uint64_t idx = 0;
        switch (lane.index_mode) {
          case PagIndexMode::Modulo:
            idx = (pc >> lane.shift) % lane.bht_entries;
            break;
          case PagIndexMode::Allocated: {
            auto it = lane.assignment.find(pc);
            idx = it != lane.assignment.end()
                      ? it->second
                      : (pc >> lane.shift) % lane.bht_entries;
            break;
          }
          case PagIndexMode::Ideal:
            idx = lane.ideal_ids.emplace(pc, lane.ideal_ids.size())
                      .first->second;
            break;
        }
        if (idx >= lane.bht.size())
            lane.bht.resize(idx + 1, 0);
        std::uint32_t hist = lane.bht[idx];
        std::uint8_t &ctr = lane.pht[hist % lane.pht_size];
        bool predicted = counterTaken(ctr, lane.counter_max);
        if (lane.probe) {
            // Classify against the pre-update PHT, then advance the
            // branch's private shadow history.
            HistoryRegister &shadow = lane.probe->shadow(pc);
            std::uint32_t private_hist = shadow.value();
            bool pred_private =
                counterTaken(lane.pht[private_hist % lane.pht_size],
                             lane.counter_max);
            lane.probe->observe(idx, pc, hist, private_hist, predicted,
                                pred_private, taken);
            shadow.push(taken);
        }
        counterStep(ctr, lane.counter_max, taken);
        lane.bht[idx] = pushHistory(hist, taken, lane.hist_mask);
        return predicted;
      }

      case LaneKind::PAs: {
        std::uint64_t idx = (pc >> lane.shift) % lane.bht_entries;
        std::uint32_t hist = lane.bht[idx];
        std::uint64_t set = (pc >> lane.shift) & (lane.pht_sets - 1);
        std::uint8_t &ctr = lane.pht[(set << lane.hist_bits) + hist];
        bool predicted = counterTaken(ctr, lane.counter_max);
        counterStep(ctr, lane.counter_max, taken);
        lane.bht[idx] = pushHistory(hist, taken, lane.hist_mask);
        return predicted;
      }

      case LaneKind::Tournament: {
        // The components never read the chooser, so stepping them
        // first is the same as predicting all three, then updating.
        bool first = step(lane.parts[0], pc, taken);
        bool second = step(lane.parts[1], pc, taken);
        std::uint8_t &choice =
            lane.pht[(pc >> lane.shift) % lane.pht_size];
        bool predicted =
            counterTaken(choice, lane.counter_max) ? second : first;
        // Train only when exactly one component was right.
        if (first != second)
            counterStep(choice, lane.counter_max, second == taken);
        return predicted;
      }

      case LaneKind::StaticFiltered: {
        // A statically predicted branch never touches the PAg.
        auto it = lane.directions.find(pc);
        if (it != lane.directions.end())
            return it->second;
        return step(lane.parts[0], pc, taken);
      }
    }
    bwsa_panic("unknown LaneKind ", static_cast<int>(lane.kind));
}

} // namespace

/** One lane: its predictor state plus what the replayer records. */
struct BatchedReplayer::Lane
{
    LaneState state;

    // Instrumentation.
    obs::TimeSeries *miss_series = nullptr;
    PredictionStats stats;

    /** Totals already flushed to the metrics registry. */
    std::uint64_t flushed_branches = 0;
    std::uint64_t flushed_mispredicts = 0;

    // Phase attribution (setPhaseTimeline()).
    std::vector<LanePhaseBin> phase_bins;
    /** Probe destructive total already binned to earlier phases. */
    std::uint64_t phase_destructive_base = 0;
};

BatchedReplayer::BatchedReplayer(bool per_branch)
    : _per_branch(per_branch)
{
}

BatchedReplayer::~BatchedReplayer() = default;

std::size_t
BatchedReplayer::addLane(const PredictorSpec &spec,
                         const BatchedLaneOptions &options)
{
    if (_sealed)
        bwsa_panic("BatchedReplayer::addLane after replay started");
    validatePredictorSpec(spec);

    auto lane = std::make_unique<Lane>();
    lane->stats.predictor_name = predictorName(spec);
    lane->state = buildLane(spec);
    if (options.probe && lane->state.kind == LaneKind::PAg)
        lane->state.probe =
            std::make_unique<BhtInterferenceProbe>(spec.history_bits);

    if (!options.series_scope.empty())
        lane->miss_series = obs::TimeSeriesRegistry::global().series(
            options.series_scope + "/" + lane->stats.predictor_name +
            "/miss_rate");

    _lanes.push_back(std::move(lane));
    return _lanes.size() - 1;
}

void
BatchedReplayer::onBranch(const BranchRecord &record)
{
    _sealed = true;
    const bool attribute = _timeline && !_timeline->phases.empty();
    if (attribute) {
        if (_phase_pcs.empty()) {
            // First record: lanes are final now, size the bins.
            _phase_pcs.resize(_timeline->phases.size());
            for (const std::unique_ptr<Lane> &lane : _lanes)
                lane->phase_bins.resize(_timeline->phases.size());
        }
        const std::vector<obs::Phase> &phases = _timeline->phases;
        while (_phase_index + 1 < phases.size() &&
               record.timestamp >= phases[_phase_index + 1].start_ts)
            advancePhase();
        _phase_pcs[_phase_index].insert(record.pc);
    }
    for (const std::unique_ptr<Lane> &lane_ptr : _lanes) {
        Lane &lane = *lane_ptr;
        bool predicted = step(lane.state, record.pc, record.taken);
        bool miss = (predicted != record.taken);
        lane.stats.mispredicts.record(miss);
        if (_per_branch)
            lane.stats.per_branch[record.pc].record(miss);
        if (lane.miss_series)
            lane.miss_series->record(record.timestamp,
                                     miss ? 1.0 : 0.0);
        if (attribute) {
            LanePhaseBin &bin = lane.phase_bins[_phase_index];
            ++bin.executed;
            if (miss)
                ++bin.mispredicted;
        }
    }
}

void
BatchedReplayer::advancePhase()
{
    // Closing a phase: bin the probe destructive events it produced
    // (delta against what earlier phases already claimed).
    for (std::size_t i = 0; i < _lanes.size(); ++i) {
        const BhtInterferenceProbe *lane_probe = probe(i);
        if (!lane_probe)
            continue;
        Lane &lane = *_lanes[i];
        const std::uint64_t total = lane_probe->counters().destructive;
        lane.phase_bins[_phase_index].destructive =
            total - lane.phase_destructive_base;
        lane.phase_destructive_base = total;
    }
    ++_phase_index;
}

void
BatchedReplayer::onEnd()
{
    // Whole-replay totals only; onBranch() is the hot path and stays
    // uninstrumented.  Safe to call repeatedly: only the delta since
    // the previous flush is added.
    for (const std::unique_ptr<Lane> &lane_ptr : _lanes) {
        Lane &lane = *lane_ptr;
        branchesCounter().inc(lane.stats.mispredicts.total() -
                              lane.flushed_branches);
        mispredictsCounter().inc(lane.stats.mispredicts.events() -
                                 lane.flushed_mispredicts);
        lane.flushed_branches = lane.stats.mispredicts.total();
        lane.flushed_mispredicts = lane.stats.mispredicts.events();
    }
    // The last phase never crosses a boundary; settle its destructive
    // bin here.  Idempotent: the base is not advanced, so a repeated
    // onEnd() recomputes the same delta.
    if (_timeline && !_phase_pcs.empty()) {
        for (std::size_t i = 0; i < _lanes.size(); ++i) {
            const BhtInterferenceProbe *lane_probe = probe(i);
            if (!lane_probe)
                continue;
            Lane &lane = *_lanes[i];
            lane.phase_bins[_phase_index].destructive =
                lane_probe->counters().destructive -
                lane.phase_destructive_base;
        }
    }
}

void
BatchedReplayer::replay(const TraceSource &source)
{
    obs::PhaseTracer::Span span("sim.batched");
    span.addWork(_lanes.size());
    runsCounter().inc();
    predictorRunsCounter().inc(_lanes.size());
    source.replay(*this);
}

const PredictionStats &
BatchedReplayer::stats(std::size_t lane) const
{
    if (lane >= _lanes.size())
        bwsa_panic("BatchedReplayer::stats: lane ", lane,
                   " out of range (", _lanes.size(), " lanes)");
    return _lanes[lane]->stats;
}

std::vector<PredictionStats>
BatchedReplayer::allStats() const
{
    std::vector<PredictionStats> out;
    out.reserve(_lanes.size());
    for (const std::unique_ptr<Lane> &lane : _lanes)
        out.push_back(lane->stats);
    return out;
}

const BhtInterferenceProbe *
BatchedReplayer::probe(std::size_t lane) const
{
    if (lane >= _lanes.size())
        bwsa_panic("BatchedReplayer::probe: lane ", lane,
                   " out of range (", _lanes.size(), " lanes)");
    return _lanes[lane]->state.probe.get();
}

const std::string &
BatchedReplayer::laneName(std::size_t lane) const
{
    return stats(lane).predictor_name;
}

void
BatchedReplayer::setPhaseTimeline(const obs::PhaseTimeline *timeline)
{
    if (_sealed)
        bwsa_panic(
            "BatchedReplayer::setPhaseTimeline after replay started");
    _timeline = timeline;
    _phase_index = 0;
    _phase_pcs.clear();
}

const std::vector<LanePhaseBin> &
BatchedReplayer::phaseBins(std::size_t lane) const
{
    if (lane >= _lanes.size())
        bwsa_panic("BatchedReplayer::phaseBins: lane ", lane,
                   " out of range (", _lanes.size(), " lanes)");
    return _lanes[lane]->phase_bins;
}

std::vector<PredictionStats>
replayBatched(const TraceSource &source,
              const std::vector<PredictorSpec> &specs,
              bool per_branch)
{
    BatchedReplayer replayer(per_branch);
    for (const PredictorSpec &spec : specs)
        replayer.addLane(spec);
    replayer.replay(source);
    return replayer.allStats();
}

} // namespace bwsa
