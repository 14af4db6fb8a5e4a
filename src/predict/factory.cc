#include "predict/factory.hh"

#include "predict/agree.hh"
#include "predict/bimodal.hh"
#include "predict/index_policy.hh"
#include "predict/static_filter.hh"
#include "predict/static_pred.hh"
#include "predict/tournament.hh"
#include "predict/twolevel.hh"
#include "util/bitfield.hh"
#include "util/logging.hh"
#include "util/strutil.hh"

namespace bwsa
{

std::string
predictorKindName(PredictorKind kind)
{
    switch (kind) {
      case PredictorKind::AlwaysTaken:
        return "always-taken";
      case PredictorKind::AlwaysNotTaken:
        return "always-not-taken";
      case PredictorKind::Bimodal:
        return "bimodal";
      case PredictorKind::GAg:
        return "GAg";
      case PredictorKind::Gshare:
        return "gshare";
      case PredictorKind::PAgModulo:
        return "PAg";
      case PredictorKind::PAgAllocated:
        return "PAg-alloc";
      case PredictorKind::PAgIdeal:
        return "PAg-ideal";
      case PredictorKind::PAs:
        return "PAs";
      case PredictorKind::Tournament:
        return "tournament";
      case PredictorKind::Agree:
        return "agree";
      case PredictorKind::StaticFilteredPAg:
        return "static-filtered-PAg";
      case PredictorKind::ProfileStatic:
        return "profile-static";
    }
    bwsa_panic("unknown PredictorKind ", static_cast<int>(kind));
}

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

namespace
{

/** Kind keyword of the spec grammar -> enum value. */
bool
parseKindKeyword(const std::string &word, PredictorKind &out)
{
    if (word == "taken")
        out = PredictorKind::AlwaysTaken;
    else if (word == "not-taken")
        out = PredictorKind::AlwaysNotTaken;
    else if (word == "bimodal")
        out = PredictorKind::Bimodal;
    else if (word == "gag")
        out = PredictorKind::GAg;
    else if (word == "gshare")
        out = PredictorKind::Gshare;
    else if (word == "pag")
        out = PredictorKind::PAgModulo;
    else if (word == "pag-ideal")
        out = PredictorKind::PAgIdeal;
    else if (word == "pas")
        out = PredictorKind::PAs;
    else if (word == "tournament")
        out = PredictorKind::Tournament;
    else if (word == "agree")
        out = PredictorKind::Agree;
    else
        return false;
    return true;
}

/** One "key=value" parameter applied to @p spec; fatal on misuse. */
void
applySpecParam(PredictorSpec &spec, const std::string &param,
               const std::string &full)
{
    std::size_t eq = param.find('=');
    if (eq == std::string::npos)
        bwsa_fatal("predictor spec '", full, "': parameter '", param,
                   "' is not of the form key=value");
    std::string key = trim(param.substr(0, eq));
    std::string value_text = trim(param.substr(eq + 1));
    std::uint64_t value = 0;
    if (!parseUint64(value_text, value))
        bwsa_fatal("predictor spec '", full, "': value '", value_text,
                   "' of '", key, "' is not an unsigned integer");

    auto require = [&](bool ok, const char *range) {
        if (!ok)
            bwsa_fatal("predictor spec '", full, "': ", key, "=",
                       value, " out of range (", range, ")");
    };
    if (key == "bht") {
        require(value >= 1, ">= 1");
        spec.bht_entries = value;
    } else if (key == "pht") {
        require(value >= 1, ">= 1");
        spec.pht_entries = value;
    } else if (key == "hist") {
        require(value >= 1 && value <= 30, "1..30");
        spec.history_bits = static_cast<unsigned>(value);
    } else if (key == "ctr") {
        require(value >= 1 && value <= 16, "1..16");
        spec.counter_bits = static_cast<unsigned>(value);
    } else if (key == "sets") {
        require(value >= 1, ">= 1");
        spec.pht_sets = value;
    } else if (key == "shift") {
        require(value <= 4, "0..4");
        spec.insn_shift = static_cast<unsigned>(value);
    } else {
        bwsa_fatal("predictor spec '", full, "': unknown key '", key,
                   "' (supported: bht pht hist ctr sets shift)");
    }
}

} // namespace

PredictorSpec
parsePredictorSpec(const std::string &text)
{
    std::string full = trim(text);
    if (full.empty())
        bwsa_fatal("empty predictor spec");

    std::string kind_word = full;
    std::string params;
    std::size_t colon = full.find(':');
    if (colon != std::string::npos) {
        kind_word = full.substr(0, colon);
        params = full.substr(colon + 1);
    }

    PredictorSpec spec;
    if (!parseKindKeyword(toLower(trim(kind_word)), spec.kind))
        bwsa_fatal("predictor spec '", full, "': unknown kind '",
                   trim(kind_word),
                   "' (supported: taken not-taken bimodal gag gshare "
                   "pag pag-ideal pas tournament agree)");

    if (colon != std::string::npos) {
        if (trim(params).empty())
            bwsa_fatal("predictor spec '", full,
                       "': empty parameter list after ':'");
        for (const std::string &param : split(params, ','))
            applySpecParam(spec, toLower(trim(param)), full);
    }
    return spec;
}

PredictorSpec
paperBaselineSpec()
{
    PredictorSpec spec;
    spec.kind = PredictorKind::PAgModulo;
    spec.bht_entries = 1024;
    spec.pht_entries = 4096;
    spec.history_bits = 12;
    return spec;
}

PredictorSpec
interferenceFreeSpec()
{
    PredictorSpec spec = paperBaselineSpec();
    spec.kind = PredictorKind::PAgIdeal;
    return spec;
}

PredictorSpec
allocatedSpec(std::unordered_map<BranchPc, std::uint32_t> assignment,
              std::uint64_t bht_entries)
{
    PredictorSpec spec = paperBaselineSpec();
    spec.kind = PredictorKind::PAgAllocated;
    spec.bht_entries = bht_entries;
    spec.assignment = std::move(assignment);
    return spec;
}

} // namespace bwsa
