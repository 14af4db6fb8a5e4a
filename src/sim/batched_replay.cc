#include "sim/batched_replay.hh"

#include <utility>

#include "obs/metrics.hh"
#include "obs/phase_tracer.hh"
#include "predict/twolevel.hh"
#include "util/bitfield.hh"
#include "util/logging.hh"

namespace bwsa
{

namespace
{

/** Flat-lane families; Generic drives a real Predictor object. */
enum class LaneKind : std::uint8_t
{
    StaticTaken,
    StaticNotTaken,
    Bimodal,
    GAg,
    Gshare,
    Agree,
    PAg,
    PAs,
    Generic,
};

/** BHT index policy of a flat PAg lane. */
enum class PagIndexMode : std::uint8_t
{
    Modulo,
    Allocated,
    Ideal,
};

/**
 * Counter handles resolved once (same rationale as bpred_sim.cc: the
 * by-name lookup takes the registry mutex).  They alias the cells the
 * serial engine flushes into -- counters are keyed by name -- so
 * reports see one sim.* family whichever engine replayed the trace.
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

} // namespace

/**
 * One predictor configuration in packed (structure-of-arrays) form.
 *
 * The geometry fields are frozen at addLane(); the step loop touches
 * only the flat vectors (histories as raw uint16_t patterns, counters
 * as raw uint8_t values) plus the sparse side maps the corresponding
 * Predictor would also consult (allocated assignment, ideal-index ids,
 * agree bias bits).
 */
struct BatchedReplayer::Lane
{
    LaneKind kind = LaneKind::Generic;
    PagIndexMode index_mode = PagIndexMode::Modulo;

    // Geometry.
    std::uint64_t bht_entries = 0; ///< modulo divisor; 0 = unbounded
    std::uint64_t pht_size = 0;    ///< PAg PHT modulo divisor
    std::uint64_t pht_sets = 1;    ///< PAs second-level set count
    std::uint64_t ghist_mask = 0;  ///< global-history index mask
    std::uint16_t hist_mask = 0;   ///< per-address pattern mask
    unsigned hist_bits = 0;
    unsigned shift = 3;
    std::uint8_t counter_max = 3;

    // Packed state.
    std::vector<std::uint16_t> bht; ///< per-entry history patterns
    std::vector<std::uint8_t> pht;  ///< saturating counter values
    std::uint32_t ghist = 0;        ///< global history register

    // Sparse per-branch side tables.
    std::unordered_map<BranchPc, std::uint32_t> assignment;
    std::unordered_map<BranchPc, std::uint64_t> ideal_ids;
    std::unordered_map<BranchPc, bool> bias;

    // Generic fallback: the real predictor object.
    PredictorPtr predictor;
    PAgPredictor *generic_pag = nullptr; ///< probe-enabled fallback

    // Instrumentation.
    std::unique_ptr<BhtInterferenceProbe> probe;
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

    // The factory validates the spec and names the lane, so batched
    // lanes reject bad geometry exactly like their Predictor twins.
    PredictorPtr built = makePredictor(spec);

    auto lane = std::make_unique<Lane>();
    lane->stats.predictor_name = built->name();
    lane->shift = spec.insn_shift;
    const auto mid =
        static_cast<std::uint8_t>((1u << spec.counter_bits) >> 1);
    lane->counter_max =
        static_cast<std::uint8_t>((1u << spec.counter_bits) - 1u);

    // Per-address history patterns pack into uint16_t; wider
    // configurations (grammar allows up to 30 bits) take the generic
    // path.  Global-history kinds keep the register in a uint32_t and
    // never hit this limit.
    const bool flat_history = spec.history_bits <= 16;

    switch (spec.kind) {
      case PredictorKind::AlwaysTaken:
        lane->kind = LaneKind::StaticTaken;
        break;

      case PredictorKind::AlwaysNotTaken:
        lane->kind = LaneKind::StaticNotTaken;
        break;

      case PredictorKind::Bimodal:
        lane->kind = LaneKind::Bimodal;
        lane->bht_entries = spec.bht_entries;
        lane->pht.assign(spec.bht_entries, mid);
        break;

      case PredictorKind::GAg:
      case PredictorKind::Gshare:
        lane->kind = spec.kind == PredictorKind::GAg
                         ? LaneKind::GAg
                         : LaneKind::Gshare;
        lane->hist_bits = spec.history_bits;
        lane->ghist_mask = lowMask(spec.history_bits);
        lane->pht.assign(std::uint64_t(1) << spec.history_bits, mid);
        break;

      case PredictorKind::Agree:
        lane->kind = LaneKind::Agree;
        lane->hist_bits = spec.history_bits;
        lane->ghist_mask = lowMask(spec.history_bits);
        // Agree counters start strongly agreeing (see agree.cc).
        lane->pht.assign(std::uint64_t(1) << spec.history_bits,
                         lane->counter_max);
        break;

      case PredictorKind::PAgModulo:
      case PredictorKind::PAgAllocated:
      case PredictorKind::PAgIdeal:
        if (flat_history) {
            lane->kind = LaneKind::PAg;
            lane->hist_bits = spec.history_bits;
            lane->hist_mask = static_cast<std::uint16_t>(
                lowMask(spec.history_bits));
            lane->pht_size = spec.pht_entries;
            lane->pht.assign(spec.pht_entries, mid);
            if (spec.kind == PredictorKind::PAgIdeal) {
                lane->index_mode = PagIndexMode::Ideal;
            } else {
                lane->index_mode =
                    spec.kind == PredictorKind::PAgAllocated
                        ? PagIndexMode::Allocated
                        : PagIndexMode::Modulo;
                lane->bht_entries = spec.bht_entries;
                lane->bht.assign(spec.bht_entries, 0);
                if (spec.kind == PredictorKind::PAgAllocated)
                    lane->assignment = spec.assignment;
            }
        }
        break;

      case PredictorKind::PAs:
        if (flat_history) {
            lane->kind = LaneKind::PAs;
            lane->hist_bits = spec.history_bits;
            lane->hist_mask = static_cast<std::uint16_t>(
                lowMask(spec.history_bits));
            lane->pht_sets = spec.pht_sets;
            lane->bht_entries = spec.bht_entries;
            lane->bht.assign(spec.bht_entries, 0);
            lane->pht.assign(spec.pht_sets
                                 << spec.history_bits,
                             mid);
        }
        break;

      case PredictorKind::Tournament:
      case PredictorKind::StaticFilteredPAg:
      case PredictorKind::ProfileStatic:
        // Composite and map-driven predictors keep their object form.
        break;
    }

    if (lane->kind == LaneKind::Generic) {
        lane->predictor = std::move(built);
        if (options.probe) {
            if (auto *pag = dynamic_cast<PAgPredictor *>(
                    lane->predictor.get())) {
                pag->enableInterferenceProbe();
                lane->generic_pag = pag;
            }
        }
    } else if (options.probe && lane->kind == LaneKind::PAg) {
        lane->probe =
            std::make_unique<BhtInterferenceProbe>(spec.history_bits);
    }

    if (!options.series_scope.empty())
        lane->miss_series = obs::TimeSeriesRegistry::global().series(
            options.series_scope + "/" + lane->stats.predictor_name +
            "/miss_rate");

    _lanes.push_back(std::move(lane));
    return _lanes.size() - 1;
}

bool
BatchedReplayer::step(Lane &lane, BranchPc pc, bool taken)
{
    switch (lane.kind) {
      case LaneKind::StaticTaken:
        return true;

      case LaneKind::StaticNotTaken:
        return false;

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
        lane.ghist = static_cast<std::uint32_t>(
            ((lane.ghist << 1) | (taken ? 1u : 0u)) & lane.ghist_mask);
        return predicted;
      }

      case LaneKind::Gshare: {
        std::uint64_t idx =
            (lane.ghist ^ (pc >> lane.shift)) & lane.ghist_mask;
        std::uint8_t &ctr = lane.pht[idx];
        bool predicted = counterTaken(ctr, lane.counter_max);
        counterStep(ctr, lane.counter_max, taken);
        lane.ghist = static_cast<std::uint32_t>(
            ((lane.ghist << 1) | (taken ? 1u : 0u)) & lane.ghist_mask);
        return predicted;
      }

      case LaneKind::Agree: {
        auto it = lane.bias.find(pc);
        // Unknown branch: no bias bit yet, predict taken (agree.cc).
        bool bias = it == lane.bias.end() ? true : it->second;
        std::uint64_t idx =
            (lane.ghist ^ (pc >> lane.shift)) & lane.ghist_mask;
        std::uint8_t &ctr = lane.pht[idx];
        bool predicted =
            counterTaken(ctr, lane.counter_max) ? bias : !bias;
        // The bias bit latches the branch's first outcome.
        bool latched = lane.bias.emplace(pc, taken).first->second;
        counterStep(ctr, lane.counter_max, taken == latched);
        lane.ghist = static_cast<std::uint32_t>(
            ((lane.ghist << 1) | (taken ? 1u : 0u)) & lane.ghist_mask);
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
        std::uint16_t hist = lane.bht[idx];
        std::uint8_t &ctr = lane.pht[hist % lane.pht_size];
        bool predicted = counterTaken(ctr, lane.counter_max);
        if (lane.probe) {
            // Mirrors PAgPredictor::probeObserve(): classify against
            // the pre-update PHT, then advance the shadow history.
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
        lane.bht[idx] = static_cast<std::uint16_t>(
            ((hist << 1) | (taken ? 1u : 0u)) & lane.hist_mask);
        return predicted;
      }

      case LaneKind::PAs: {
        std::uint64_t idx = (pc >> lane.shift) % lane.bht_entries;
        std::uint16_t hist = lane.bht[idx];
        std::uint64_t set = (pc >> lane.shift) & (lane.pht_sets - 1);
        std::uint8_t &ctr =
            lane.pht[(set << lane.hist_bits) + hist];
        bool predicted = counterTaken(ctr, lane.counter_max);
        counterStep(ctr, lane.counter_max, taken);
        lane.bht[idx] = static_cast<std::uint16_t>(
            ((hist << 1) | (taken ? 1u : 0u)) & lane.hist_mask);
        return predicted;
      }

      case LaneKind::Generic: {
        bool predicted = lane.predictor->predict(pc);
        lane.predictor->update(pc, taken);
        return predicted;
      }
    }
    bwsa_panic("unknown LaneKind ",
               static_cast<int>(lane.kind));
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
        bool predicted = step(lane, record.pc, record.taken);
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
    // uninstrumented (same contract as PredictionSim::onEnd()).
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
    const Lane &l = *_lanes[lane];
    if (l.probe)
        return l.probe.get();
    if (l.generic_pag)
        return l.generic_pag->interferenceProbe();
    return nullptr;
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

bool
BatchedReplayer::laneIsFlat(std::size_t lane) const
{
    if (lane >= _lanes.size())
        bwsa_panic("BatchedReplayer::laneIsFlat: lane ", lane,
                   " out of range (", _lanes.size(), " lanes)");
    return _lanes[lane]->kind != LaneKind::Generic;
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
