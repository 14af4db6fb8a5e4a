#include "sim/batched_replay.hh"

#include <algorithm>
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

/**
 * SatCounter::update() on a packed counter cell.  Branch-free with an
 * unconditional store: whether a counter moves is data-dependent, so
 * a branch on it mispredicts.
 */
inline void
counterStep(std::uint8_t &value, std::uint8_t max, bool taken)
{
    const std::uint8_t v = value;
    value = static_cast<std::uint8_t>(taken ? v + (v < max)
                                            : v - (v > 0));
}

/** Shift @p taken into a history pattern of @p mask width. */
inline std::uint32_t
pushHistory(std::uint32_t hist, bool taken, std::uint32_t mask)
{
    return ((hist << 1) | (taken ? 1u : 0u)) & mask;
}

/** A per-slot cell the lane has not resolved yet. */
constexpr std::uint32_t unresolved = ~std::uint32_t(0);

/** Static-filter cell of a branch its PAg sub-lane predicts. */
constexpr std::uint32_t pass_through = 2;

/**
 * Records in struct-of-arrays form, as a lane's block loop reads
 * them: a replayer block, or the part of one that a static filter
 * passes to its PAg sub-lane.
 */
struct RecordColumns
{
    explicit RecordColumns(std::size_t capacity = 0)
        : pc(capacity), slot(capacity), taken(capacity)
    {
    }

    std::vector<BranchPc> pc;
    std::vector<std::uint32_t> slot; ///< the replayer's dense slot
    std::vector<std::uint8_t> taken;
    std::size_t size = 0;
};

/**
 * The predictor state of one lane in packed (structure-of-arrays)
 * form.
 *
 * The geometry fields are frozen at addLane(); a block loop touches
 * only the flat vectors plus the slot-indexed side table.  Composite
 * kinds keep their components as sub-lanes in `parts`.
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

    /**
     * Per-slot side table, filled the first time the lane sees a
     * slot: the BHT index (PAg), the latched bias bit (agree), or the
     * static direction (profile-static; a static filter marks the
     * branches it passes on with pass_through).
     */
    std::vector<std::uint32_t> slot_cells;

    // Sparse maps the slot cells resolve from, read once per slot.
    std::unordered_map<BranchPc, std::uint32_t> assignment;
    std::unordered_map<BranchPc, bool> directions;

    /** Miss bit per record of the last block the lane ran. */
    std::vector<std::uint8_t> miss;

    /** Static filter: the passed records and their block positions. */
    RecordColumns passed;
    std::vector<std::uint32_t> passed_at;

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
    lane.miss.assign(BatchedReplayer::block_records, 0);
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
        lane.passed = RecordColumns(BatchedReplayer::block_records);
        lane.passed_at.resize(BatchedReplayer::block_records);
        break;
    }
    for (const PredictorSpec &part : componentSpecs(spec))
        lane.parts.push_back(buildLane(part));
    return lane;
}

/** The lane's slot cells, grown to cover @p slots slots. */
std::uint32_t *
slotCells(LaneState &lane, std::size_t slots)
{
    if (lane.slot_cells.size() < slots)
        lane.slot_cells.resize(slots, unresolved);
    return lane.slot_cells.data();
}

/** BHT index of a branch a PAg lane sees for the first time. */
std::uint32_t
pagIndex(LaneState &lane, BranchPc pc)
{
    switch (lane.index_mode) {
      case PagIndexMode::Modulo:
        break;
      case PagIndexMode::Allocated: {
        auto it = lane.assignment.find(pc);
        if (it != lane.assignment.end())
            return it->second;
        break;
      }
      case PagIndexMode::Ideal:
        // One private entry per branch, numbered in the order this
        // lane first sees them.
        lane.bht.push_back(0);
        return static_cast<std::uint32_t>(lane.bht.size() - 1);
    }
    return static_cast<std::uint32_t>((pc >> lane.shift) %
                                      lane.bht_entries);
}

/** Sum of a block's miss bits. */
std::uint64_t
countMisses(const std::uint8_t *miss, std::size_t n)
{
    std::uint64_t misses = 0;
    for (std::size_t i = 0; i < n; ++i)
        misses += miss[i];
    return misses;
}

std::uint64_t runBlock(LaneState &lane, const RecordColumns &in,
                       std::size_t slots);

/**
 * Block loops, one per lane kind.  Each writes the lane's miss bit
 * for every record of @p in and returns the block's misses.  Vector
 * data is read into locals: the byte stores to counters and miss bits
 * may alias anything, so members would be reloaded every record.
 */

std::uint64_t
fixedBlock(LaneState &lane, const RecordColumns &in, bool predicted)
{
    const std::uint8_t *taken = in.taken.data();
    std::uint8_t *miss = lane.miss.data();
    for (std::size_t i = 0; i < in.size; ++i)
        miss[i] = (taken[i] != 0) != predicted;
    return countMisses(miss, in.size);
}

std::uint64_t
profileStaticBlock(LaneState &lane, const RecordColumns &in,
                   std::size_t slots)
{
    std::uint32_t *cells = slotCells(lane, slots);
    std::uint8_t *miss = lane.miss.data();
    for (std::size_t i = 0; i < in.size; ++i) {
        std::uint32_t &cell = cells[in.slot[i]];
        if (cell == unresolved) {
            // Unprofiled branches are predicted taken.
            auto it = lane.directions.find(in.pc[i]);
            cell = it == lane.directions.end() || it->second;
        }
        miss[i] = cell != in.taken[i];
    }
    return countMisses(miss, in.size);
}

std::uint64_t
bimodalBlock(LaneState &lane, const RecordColumns &in)
{
    const BranchPc *pc = in.pc.data();
    const std::uint8_t *taken = in.taken.data();
    std::uint8_t *pht = lane.pht.data();
    std::uint8_t *miss = lane.miss.data();
    const std::uint8_t max = lane.counter_max;
    std::uint64_t misses = 0;
    for (std::size_t i = 0; i < in.size; ++i) {
        std::uint8_t &ctr =
            pht[(pc[i] >> lane.shift) % lane.bht_entries];
        const bool predicted = counterTaken(ctr, max);
        counterStep(ctr, max, taken[i]);
        miss[i] = predicted != (taken[i] != 0);
        misses += miss[i];
    }
    return misses;
}

/** GAg (@p HashPc false) and gshare (true). */
template <bool HashPc>
std::uint64_t
globalBlock(LaneState &lane, const RecordColumns &in)
{
    const BranchPc *pc = in.pc.data();
    const std::uint8_t *taken = in.taken.data();
    std::uint8_t *pht = lane.pht.data();
    std::uint8_t *miss = lane.miss.data();
    const std::uint8_t max = lane.counter_max;
    const std::uint32_t mask = lane.hist_mask;
    const unsigned shift = lane.shift;
    std::uint32_t ghist = lane.ghist;
    std::uint64_t misses = 0;
    for (std::size_t i = 0; i < in.size; ++i) {
        const std::uint64_t idx =
            HashPc ? (ghist ^ (pc[i] >> shift)) & mask : ghist;
        std::uint8_t &ctr = pht[idx];
        const bool predicted = counterTaken(ctr, max);
        counterStep(ctr, max, taken[i]);
        ghist = pushHistory(ghist, taken[i], mask);
        miss[i] = predicted != (taken[i] != 0);
        misses += miss[i];
    }
    lane.ghist = ghist;
    return misses;
}

std::uint64_t
agreeBlock(LaneState &lane, const RecordColumns &in, std::size_t slots)
{
    const BranchPc *pc = in.pc.data();
    const std::uint32_t *slot = in.slot.data();
    const std::uint8_t *taken = in.taken.data();
    std::uint32_t *cells = slotCells(lane, slots);
    std::uint8_t *pht = lane.pht.data();
    std::uint8_t *miss = lane.miss.data();
    const std::uint8_t max = lane.counter_max;
    const std::uint32_t mask = lane.hist_mask;
    const unsigned shift = lane.shift;
    std::uint32_t ghist = lane.ghist;
    std::uint64_t misses = 0;
    for (std::size_t i = 0; i < in.size; ++i) {
        std::uint32_t &bias = cells[slot[i]];
        // Unknown branch: no bias bit yet, predict taken.
        const bool bias_bit = bias == unresolved || bias != 0;
        std::uint8_t &ctr = pht[(ghist ^ (pc[i] >> shift)) & mask];
        const bool predicted =
            counterTaken(ctr, max) ? bias_bit : !bias_bit;
        // The bias bit latches the branch's first outcome.
        if (bias == unresolved)
            bias = taken[i];
        counterStep(ctr, max, taken[i] == bias);
        ghist = pushHistory(ghist, taken[i], mask);
        miss[i] = predicted != (taken[i] != 0);
        misses += miss[i];
    }
    lane.ghist = ghist;
    return misses;
}

/** PAg in every index mode, with or without the probe. */
template <bool Probed>
std::uint64_t
pagBlock(LaneState &lane, const RecordColumns &in, std::size_t slots)
{
    const BranchPc *pc = in.pc.data();
    const std::uint32_t *slot = in.slot.data();
    const std::uint8_t *taken = in.taken.data();
    std::uint32_t *cells = slotCells(lane, slots);
    std::uint32_t *bht = lane.bht.data();
    std::uint8_t *pht = lane.pht.data();
    std::uint8_t *miss = lane.miss.data();
    const std::uint64_t pht_size = lane.pht_size;
    // A power-of-two PHT (every paper geometry) is indexed by a mask.
    const std::uint64_t pht_mask =
        isPowerOfTwo(pht_size) ? pht_size - 1 : 0;
    auto phtRow = [&](std::uint32_t hist) {
        return pht_mask ? hist & pht_mask : hist % pht_size;
    };
    const std::uint32_t mask = lane.hist_mask;
    const std::uint8_t max = lane.counter_max;
    std::uint64_t misses = 0;
    for (std::size_t i = 0; i < in.size; ++i) {
        std::uint32_t idx = cells[slot[i]];
        if (idx == unresolved) {
            idx = cells[slot[i]] = pagIndex(lane, pc[i]);
            bht = lane.bht.data(); // an ideal index grows the BHT
        }
        const std::uint32_t hist = bht[idx];
        std::uint8_t &ctr = pht[phtRow(hist)];
        const bool predicted = counterTaken(ctr, max);
        if constexpr (Probed) {
            // Classify against the pre-update PHT, then advance the
            // branch's private shadow history.
            HistoryRegister &shadow = lane.probe->shadow(pc[i]);
            const std::uint32_t private_hist = shadow.value();
            const bool pred_private =
                counterTaken(pht[phtRow(private_hist)], max);
            lane.probe->observe(idx, pc[i], hist, private_hist,
                                predicted, pred_private, taken[i]);
            shadow.push(taken[i]);
        }
        counterStep(ctr, max, taken[i]);
        bht[idx] = pushHistory(hist, taken[i], mask);
        miss[i] = predicted != (taken[i] != 0);
        misses += miss[i];
    }
    return misses;
}

std::uint64_t
pasBlock(LaneState &lane, const RecordColumns &in)
{
    const BranchPc *pc = in.pc.data();
    const std::uint8_t *taken = in.taken.data();
    std::uint32_t *bht = lane.bht.data();
    std::uint8_t *pht = lane.pht.data();
    std::uint8_t *miss = lane.miss.data();
    const std::uint8_t max = lane.counter_max;
    std::uint64_t misses = 0;
    for (std::size_t i = 0; i < in.size; ++i) {
        const std::uint64_t site = pc[i] >> lane.shift;
        const std::uint64_t idx = site % lane.bht_entries;
        const std::uint32_t hist = bht[idx];
        const std::uint64_t set = site & (lane.pht_sets - 1);
        std::uint8_t &ctr = pht[(set << lane.hist_bits) + hist];
        const bool predicted = counterTaken(ctr, max);
        counterStep(ctr, max, taken[i]);
        bht[idx] = pushHistory(hist, taken[i], lane.hist_mask);
        miss[i] = predicted != (taken[i] != 0);
        misses += miss[i];
    }
    return misses;
}

std::uint64_t
tournamentBlock(LaneState &lane, const RecordColumns &in,
                std::size_t slots)
{
    // The components never read the chooser, so running them over
    // the block first is the same as predicting all three per record,
    // then updating.
    runBlock(lane.parts[0], in, slots);
    runBlock(lane.parts[1], in, slots);
    const std::uint8_t *first_miss = lane.parts[0].miss.data();
    const std::uint8_t *second_miss = lane.parts[1].miss.data();
    const BranchPc *pc = in.pc.data();
    const std::uint8_t *taken = in.taken.data();
    std::uint8_t *pht = lane.pht.data();
    std::uint8_t *miss = lane.miss.data();
    const std::uint8_t max = lane.counter_max;
    std::uint64_t misses = 0;
    for (std::size_t i = 0; i < in.size; ++i) {
        const bool outcome = taken[i] != 0;
        const bool first = outcome != (first_miss[i] != 0);
        const bool second = outcome != (second_miss[i] != 0);
        std::uint8_t &choice = pht[(pc[i] >> lane.shift) % lane.pht_size];
        const bool predicted = counterTaken(choice, max) ? second : first;
        // Train only when exactly one component was right.
        if (first != second)
            counterStep(choice, max, second == outcome);
        miss[i] = predicted != outcome;
        misses += miss[i];
    }
    return misses;
}

std::uint64_t
staticFilteredBlock(LaneState &lane, const RecordColumns &in,
                    std::size_t slots)
{
    // A statically predicted branch never touches the PAg: the
    // sub-lane runs over the passed records only.
    std::uint32_t *cells = slotCells(lane, slots);
    std::uint8_t *miss = lane.miss.data();
    RecordColumns &passed = lane.passed;
    std::size_t n = 0;
    for (std::size_t i = 0; i < in.size; ++i) {
        std::uint32_t &cell = cells[in.slot[i]];
        if (cell == unresolved) {
            auto it = lane.directions.find(in.pc[i]);
            cell = it == lane.directions.end() ? pass_through
                                               : it->second;
        }
        if (cell == pass_through) {
            passed.pc[n] = in.pc[i];
            passed.slot[n] = in.slot[i];
            passed.taken[n] = in.taken[i];
            lane.passed_at[n] = static_cast<std::uint32_t>(i);
            ++n;
        } else {
            miss[i] = cell != in.taken[i];
        }
    }
    passed.size = n;
    runBlock(lane.parts[0], passed, slots);
    const std::uint8_t *passed_miss = lane.parts[0].miss.data();
    for (std::size_t j = 0; j < n; ++j)
        miss[lane.passed_at[j]] = passed_miss[j];
    return countMisses(miss, in.size);
}

/** Run @p lane's block loop over @p in; returns the misses. */
std::uint64_t
runBlock(LaneState &lane, const RecordColumns &in, std::size_t slots)
{
    switch (lane.kind) {
      case LaneKind::StaticTaken:
        return fixedBlock(lane, in, true);
      case LaneKind::StaticNotTaken:
        return fixedBlock(lane, in, false);
      case LaneKind::ProfileStatic:
        return profileStaticBlock(lane, in, slots);
      case LaneKind::Bimodal:
        return bimodalBlock(lane, in);
      case LaneKind::GAg:
        return globalBlock<false>(lane, in);
      case LaneKind::Gshare:
        return globalBlock<true>(lane, in);
      case LaneKind::Agree:
        return agreeBlock(lane, in, slots);
      case LaneKind::PAg:
        return lane.probe ? pagBlock<true>(lane, in, slots)
                          : pagBlock<false>(lane, in, slots);
      case LaneKind::PAs:
        return pasBlock(lane, in);
      case LaneKind::Tournament:
        return tournamentBlock(lane, in, slots);
      case LaneKind::StaticFiltered:
        return staticFilteredBlock(lane, in, slots);
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
    LaneMissFold fold;
    PredictionStats stats;
    /** Per-slot ratios; onEnd() publishes them as stats.per_branch. */
    std::vector<RatioStat> slot_stats;

    /** Totals already flushed to the metrics registry. */
    std::uint64_t flushed_branches = 0;
    std::uint64_t flushed_mispredicts = 0;

    // Phase attribution (setPhaseTimeline()).
    std::vector<LanePhaseBin> phase_bins;
    /** Probe destructive total already binned to earlier phases. */
    std::uint64_t phase_destructive_base = 0;
};

/** The open block: records since the lanes last ran. */
struct BatchedReplayer::Block
{
    RecordColumns records{block_records};
    std::vector<std::uint64_t> timestamp =
        std::vector<std::uint64_t>(block_records);
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
BatchedReplayer::foldMisses(std::size_t lane, LaneMissFold fold)
{
    if (_sealed)
        bwsa_panic("BatchedReplayer::foldMisses after replay started");
    if (lane >= _lanes.size())
        bwsa_panic("BatchedReplayer::foldMisses: lane ", lane,
                   " out of range (", _lanes.size(), " lanes)");
    _lanes[lane]->fold = std::move(fold);
}

void
BatchedReplayer::seal()
{
    // First record: lanes are final now.
    _sealed = true;
    _block = std::make_unique<Block>();
    growSlotTable();
    _attribute = _timeline && !_timeline->phases.empty();
    if (_attribute) {
        _phase_pcs.resize(_timeline->phases.size());
        for (const std::unique_ptr<Lane> &lane : _lanes)
            lane->phase_bins.resize(_timeline->phases.size());
    }
}

std::uint32_t
BatchedReplayer::slotFor(BranchPc pc)
{
    std::size_t mask = _slot_table.size() - 1;
    for (std::size_t i = mix64(pc) & mask;; i = (i + 1) & mask) {
        const SlotEntry &entry = _slot_table[i];
        if (entry.slot == npos)
            break;
        if (entry.pc == pc)
            return entry.slot;
    }

    // First occurrence: the next slot, in first-occurrence order.
    const auto slot = static_cast<std::uint32_t>(_slot_pcs.size());
    if ((_slot_pcs.size() + 1) * 2 > _slot_table.size())
        growSlotTable();
    mask = _slot_table.size() - 1;
    std::size_t i = mix64(pc) & mask;
    while (_slot_table[i].slot != npos)
        i = (i + 1) & mask;
    _slot_table[i] = {pc, slot};
    _slot_pcs.push_back(pc);
    return slot;
}

void
BatchedReplayer::growSlotTable()
{
    std::vector<SlotEntry> old = std::move(_slot_table);
    _slot_table.assign(old.empty() ? 64 : old.size() * 2, SlotEntry{});
    const std::size_t mask = _slot_table.size() - 1;
    for (const SlotEntry &entry : old) {
        if (entry.slot == npos)
            continue;
        std::size_t i = mix64(entry.pc) & mask;
        while (_slot_table[i].slot != npos)
            i = (i + 1) & mask;
        _slot_table[i] = entry;
    }
}

void
BatchedReplayer::onBranch(const BranchRecord &record)
{
    BatchedReplayer::onBlock({&record, 1});
}

void
BatchedReplayer::onBlock(std::span<const BranchRecord> records)
{
    if (!_sealed)
        seal();
    const std::vector<obs::Phase> *phases =
        _attribute ? &_timeline->phases : nullptr;
    Block &block = *_block;
    std::size_t i = 0;
    while (i < records.size()) {
        // Records from the next phase's start on belong to a later
        // block: the block ends at the boundary, so the probe
        // counters advancePhase() reads cover exactly the closing
        // phase.
        std::uint64_t phase_end = ~std::uint64_t(0);
        if (phases) {
            while (_phase_index + 1 < phases->size() &&
                   records[i].timestamp >=
                       (*phases)[_phase_index + 1].start_ts) {
                replayBlock();
                advancePhase();
            }
            if (_phase_index + 1 < phases->size())
                phase_end = (*phases)[_phase_index + 1].start_ts;
        }

        // Fill the open block up to whichever comes first: its
        // capacity, the phase boundary, or the end of the records.
        const std::size_t stop = std::min(
            records.size(), i + (block_records - block.records.size));
        std::size_t at = block.records.size;
        for (; i < stop && records[i].timestamp < phase_end; ++i) {
            const BranchRecord &record = records[i];
            const std::uint32_t slot = slotFor(record.pc);
            if (phases) {
                if (slot >= _slot_phase.size())
                    _slot_phase.resize(slot + 1, 0);
                if (_slot_phase[slot] != _phase_index + 1) {
                    _slot_phase[slot] = _phase_index + 1;
                    _phase_pcs[_phase_index].insert(record.pc);
                }
            }
            block.records.pc[at] = record.pc;
            block.records.slot[at] = slot;
            block.records.taken[at] = record.taken;
            block.timestamp[at] = record.timestamp;
            ++at;
        }
        block.records.size = at;
        if (at == block_records)
            replayBlock();
    }
}

void
BatchedReplayer::replayBlock()
{
    RecordColumns &records = _block->records;
    const std::size_t n = records.size;
    if (n == 0)
        return;
    const std::size_t slots = _slot_pcs.size();
    const ReplayBlock view{n, records.pc.data(),
                           _block->timestamp.data()};
    for (const std::unique_ptr<Lane> &lane_ptr : _lanes) {
        Lane &lane = *lane_ptr;
        const std::uint64_t misses = runBlock(lane.state, records, slots);
        const std::uint8_t *miss = lane.state.miss.data();
        lane.stats.mispredicts.accumulate(misses, n);
        if (_per_branch) {
            if (lane.slot_stats.size() < slots)
                lane.slot_stats.resize(slots);
            for (std::size_t i = 0; i < n; ++i)
                lane.slot_stats[records.slot[i]].record(miss[i] != 0);
        }
        if (lane.miss_series)
            for (std::size_t i = 0; i < n; ++i)
                lane.miss_series->record(view.timestamp[i],
                                         miss[i] ? 1.0 : 0.0);
        if (_attribute) {
            LanePhaseBin &bin = lane.phase_bins[_phase_index];
            bin.executed += n;
            bin.mispredicted += misses;
        }
        if (lane.fold)
            lane.fold(view, miss);
    }
    records.size = 0;
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
    // Whole-replay totals only; the record loop stays uninstrumented.
    // Safe to call repeatedly: only the delta since the previous flush
    // is added.
    if (_block)
        replayBlock();
    for (const std::unique_ptr<Lane> &lane_ptr : _lanes) {
        Lane &lane = *lane_ptr;
        branchesCounter().inc(lane.stats.mispredicts.total() -
                              lane.flushed_branches);
        mispredictsCounter().inc(lane.stats.mispredicts.events() -
                                 lane.flushed_mispredicts);
        lane.flushed_branches = lane.stats.mispredicts.total();
        lane.flushed_mispredicts = lane.stats.mispredicts.events();
        // Slot order is first-occurrence order, the order the
        // per-branch map has always been filled in.
        for (std::size_t s = 0; s < lane.slot_stats.size(); ++s)
            lane.stats.per_branch[_slot_pcs[s]] = lane.slot_stats[s];
    }
    // The last phase never crosses a boundary; settle its destructive
    // bin here.  Idempotent: the base is not advanced, so a repeated
    // onEnd() recomputes the same delta.
    if (_attribute) {
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
