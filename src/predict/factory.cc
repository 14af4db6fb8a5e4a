#include "predict/factory.hh"

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

void
validatePredictorSpec(const PredictorSpec &spec)
{
    const std::string kind = predictorKindName(spec.kind);
    switch (spec.kind) {
      case PredictorKind::AlwaysTaken:
      case PredictorKind::AlwaysNotTaken:
      case PredictorKind::ProfileStatic:
        return;

      case PredictorKind::Tournament:
        for (const PredictorSpec &part : componentSpecs(spec))
            validatePredictorSpec(part);
        if (spec.pht_entries == 0)
            bwsa_panic(kind, " requires a nonzero chooser");
        return;

      case PredictorKind::StaticFilteredPAg:
        validatePredictorSpec(componentSpecs(spec)[0]);
        return;

      case PredictorKind::Bimodal:
      case PredictorKind::PAgModulo:
      case PredictorKind::PAgAllocated:
      case PredictorKind::PAs:
        if (spec.bht_entries == 0)
            bwsa_panic(kind, " BHT requires at least 1 entry");
        break;

      case PredictorKind::GAg:
      case PredictorKind::Gshare:
      case PredictorKind::Agree:
      case PredictorKind::PAgIdeal:
        break;
    }

    if (spec.kind == PredictorKind::PAgAllocated)
        for (const auto &[pc, idx] : spec.assignment)
            if (idx >= spec.bht_entries)
                bwsa_panic("allocated index ", idx, " for pc ", pc,
                           " exceeds table size ", spec.bht_entries);
    const bool pag = spec.kind == PredictorKind::PAgModulo ||
                     spec.kind == PredictorKind::PAgAllocated ||
                     spec.kind == PredictorKind::PAgIdeal;
    if (pag && spec.pht_entries == 0)
        bwsa_panic(kind, " requires a nonzero PHT");
    if (spec.kind == PredictorKind::PAs && !isPowerOfTwo(spec.pht_sets))
        bwsa_panic(kind, " pht_sets must be a power of two, got ",
                   spec.pht_sets);
    if (spec.kind != PredictorKind::Bimodal &&
        (spec.history_bits < 1 || spec.history_bits > 32))
        bwsa_panic(kind, " history width must be 1..32, got ",
                   spec.history_bits);
    if (spec.counter_bits < 1 || spec.counter_bits > 8)
        bwsa_panic(kind, " counter width must be 1..8, got ",
                   spec.counter_bits);
}

std::string
predictorName(const PredictorSpec &spec)
{
    const std::string hist =
        std::string("-h").append(std::to_string(spec.history_bits));
    const std::string bht = std::to_string(spec.bht_entries);
    const std::string pht = std::string(",pht=")
                                .append(std::to_string(spec.pht_entries))
                                .append(")");
    switch (spec.kind) {
      case PredictorKind::AlwaysTaken:
      case PredictorKind::AlwaysNotTaken:
      case PredictorKind::ProfileStatic:
        return predictorKindName(spec.kind);
      case PredictorKind::Bimodal:
        return "bimodal(pc-mod-" + bht + ")";
      case PredictorKind::GAg:
        return "GAg" + hist;
      case PredictorKind::Gshare:
        return "gshare" + hist;
      case PredictorKind::Agree:
        return "agree" + hist;
      case PredictorKind::PAgModulo:
        return "PAg(pc-mod-" + bht + ",bht=" + bht + pht;
      case PredictorKind::PAgAllocated:
        return "PAg(alloc-" + bht + ",bht=" + bht + pht;
      case PredictorKind::PAgIdeal:
        return "PAg(ideal,bht=inf" + pht;
      case PredictorKind::PAs:
        return std::string("PAs(pc-mod-")
            .append(bht)
            .append(",sets=")
            .append(std::to_string(spec.pht_sets))
            .append(")");
      case PredictorKind::Tournament: {
        std::vector<PredictorSpec> parts = componentSpecs(spec);
        return "tournament(" + predictorName(parts[0]) + "," +
               predictorName(parts[1]) + ")";
      }
      case PredictorKind::StaticFilteredPAg:
        return std::string("static-filter(")
            .append(std::to_string(spec.static_directions.size()))
            .append(",")
            .append(predictorName(componentSpecs(spec)[0]))
            .append(")");
    }
    bwsa_panic("unknown PredictorKind ", static_cast<int>(spec.kind));
}

std::vector<PredictorSpec>
componentSpecs(const PredictorSpec &spec)
{
    auto as = [&spec](PredictorKind kind) {
        PredictorSpec part = spec;
        part.kind = kind;
        return part;
    };
    switch (spec.kind) {
      case PredictorKind::Tournament:
        return {as(PredictorKind::Bimodal), as(PredictorKind::Gshare)};
      case PredictorKind::StaticFilteredPAg:
        return {as(spec.assignment.empty()
                       ? PredictorKind::PAgModulo
                       : PredictorKind::PAgAllocated)};
      default:
        return {};
    }
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
        require(value >= 1 && value <= 8, "1..8");
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
