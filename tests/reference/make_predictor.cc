#include "reference/make_predictor.hh"

#include "reference/agree.hh"
#include "reference/bimodal.hh"
#include "reference/index_policy.hh"
#include "reference/static_filter.hh"
#include "reference/static_pred.hh"
#include "reference/tournament.hh"
#include "reference/twolevel.hh"
#include "util/logging.hh"

namespace bwsa
{

PredictorPtr
makePredictor(const PredictorSpec &spec)
{
    switch (spec.kind) {
      case PredictorKind::AlwaysTaken:
        return std::make_unique<AlwaysTakenPredictor>();

      case PredictorKind::AlwaysNotTaken:
        return std::make_unique<AlwaysNotTakenPredictor>();

      case PredictorKind::ProfileStatic:
        return std::make_unique<ProfileStaticPredictor>(
            spec.static_directions);

      case PredictorKind::Bimodal:
        return std::make_unique<BimodalPredictor>(
            std::make_unique<ModuloIndexer>(spec.bht_entries,
                                            spec.insn_shift),
            spec.counter_bits);

      case PredictorKind::GAg:
        return std::make_unique<GAgPredictor>(spec.history_bits,
                                              spec.counter_bits);

      case PredictorKind::Gshare:
        return std::make_unique<GsharePredictor>(
            spec.history_bits, spec.counter_bits, spec.insn_shift);

      case PredictorKind::PAgModulo:
        return std::make_unique<PAgPredictor>(
            std::make_unique<ModuloIndexer>(spec.bht_entries,
                                            spec.insn_shift),
            spec.history_bits, spec.pht_entries, spec.counter_bits);

      case PredictorKind::PAgAllocated:
        return std::make_unique<PAgPredictor>(
            std::make_unique<AllocatedIndexer>(spec.assignment,
                                               spec.bht_entries,
                                               spec.insn_shift),
            spec.history_bits, spec.pht_entries, spec.counter_bits);

      case PredictorKind::PAgIdeal:
        return std::make_unique<PAgPredictor>(
            std::make_unique<IdealIndexer>(), spec.history_bits,
            spec.pht_entries, spec.counter_bits);

      case PredictorKind::PAs:
        return std::make_unique<PAsPredictor>(
            std::make_unique<ModuloIndexer>(spec.bht_entries,
                                            spec.insn_shift),
            spec.history_bits, spec.pht_sets, spec.counter_bits,
            spec.insn_shift);

      case PredictorKind::Agree:
        return std::make_unique<AgreePredictor>(
            spec.history_bits, spec.counter_bits, spec.insn_shift);

      case PredictorKind::StaticFilteredPAg: {
        PredictorSpec inner_spec = spec;
        inner_spec.kind = spec.assignment.empty()
                              ? PredictorKind::PAgModulo
                              : PredictorKind::PAgAllocated;
        return std::make_unique<StaticFilterPredictor>(
            spec.static_directions, makePredictor(inner_spec));
      }

      case PredictorKind::Tournament: {
        PredictorSpec gshare_spec = spec;
        gshare_spec.kind = PredictorKind::Gshare;
        PredictorSpec bimodal_spec = spec;
        bimodal_spec.kind = PredictorKind::Bimodal;
        return std::make_unique<TournamentPredictor>(
            makePredictor(bimodal_spec), makePredictor(gshare_spec),
            spec.pht_entries, spec.insn_shift);
      }
    }
    bwsa_panic("unknown PredictorKind ", static_cast<int>(spec.kind));
}

} // namespace bwsa
