/**
 * @file
 * Declarative construction of predictors for benches and examples.
 */

#ifndef BWSA_PREDICT_FACTORY_HH
#define BWSA_PREDICT_FACTORY_HH

#include <unordered_map>

#include "predict/predictor.hh"

namespace bwsa
{

/** Predictor families the factory can build. */
enum class PredictorKind
{
    AlwaysTaken,
    AlwaysNotTaken,
    Bimodal,      ///< PC-indexed counter table
    GAg,          ///< global history, global PHT
    Gshare,       ///< global history XOR PC
    PAgModulo,    ///< paper baseline: PAg with PC-hash BHT indexing
    PAgAllocated, ///< paper proposal: PAg with compiler-assigned BHT
    PAgIdeal,     ///< interference-free PAg (private BHT per branch)
    PAs,          ///< per-address history, per-set PHTs
    Tournament,   ///< gshare vs bimodal with a chooser
    Agree,        ///< agree predictor (Sprangle et al., ref [18])
    StaticFilteredPAg, ///< profile-static biased branches + PAg for
                       ///< the mixed remainder (Section 5.2 ISA option)
    ProfileStatic ///< profile majority direction per branch
                  ///< (static_directions); unprofiled ones taken
};

/** Name of a predictor kind for reports. */
std::string predictorKindName(PredictorKind kind);

/** Everything needed to build one predictor. */
struct PredictorSpec
{
    PredictorKind kind = PredictorKind::PAgModulo;

    /** First-level table entries (BHT / bimodal table). */
    std::uint64_t bht_entries = 1024;

    /** Second-level PHT entries. */
    std::uint64_t pht_entries = 4096;

    /** History register length (two-level kinds). */
    unsigned history_bits = 12;

    /** Saturating counter width. */
    unsigned counter_bits = 2;

    /** PAs second-level set count. */
    std::uint64_t pht_sets = 4;

    /** Static BHT assignment (PAgAllocated, StaticFilteredPAg). */
    std::unordered_map<BranchPc, std::uint32_t> assignment;

    /**
     * Statically predicted branches and their directions
     * (StaticFilteredPAg, ProfileStatic).
     */
    std::unordered_map<BranchPc, bool> static_directions;

    /** Instruction alignment shift of the traced ISA. */
    unsigned insn_shift = 3;
};

/** Build a predictor; panics on inconsistent specs. */
PredictorPtr makePredictor(const PredictorSpec &spec);

/**
 * Parse a predictor description string into a spec (the CLI-facing
 * mirror of PredictorSpec, used by example tools and sweeps).
 *
 * Grammar (case-insensitive, no whitespace significance):
 *
 *     spec  := <kind>[:<key>=<value>{,<key>=<value>}]
 *     kind  := taken | not-taken | bimodal | gag | gshare | pag |
 *              pag-ideal | pas | tournament | agree
 *     key   := bht   (first-level BHT / bimodal entries, >= 1)
 *            | pht   (second-level PHT entries, >= 1)
 *            | hist  (history register bits, 1..30)
 *            | ctr   (saturating counter bits, 1..16)
 *            | sets  (PAs second-level set count, >= 1)
 *            | shift (instruction alignment shift, 0..4)
 *
 * Examples: "pag", "pag:bht=256,hist=10", "gshare:hist=14",
 * "pas:bht=512,sets=8".  Unset keys keep PredictorSpec's defaults.
 *
 * Kinds that need a profile artifact (PAgAllocated's assignment map,
 * StaticFilteredPAg's and ProfileStatic's direction maps) cannot be
 * described by a string and are deliberately not part of the grammar;
 * build their specs programmatically (allocatedSpec(),
 * AllocationPipeline).
 *
 * Malformed input -- unknown kind, unknown key, missing '=', value
 * that does not parse or is out of range -- is fatal with a message
 * naming the offending token, so typos fail fast instead of silently
 * running a default predictor.
 */
PredictorSpec parsePredictorSpec(const std::string &text);

/** Paper-baseline spec: PAg, 1024-entry BHT, 4096-entry PHT. */
PredictorSpec paperBaselineSpec();

/** Interference-free reference spec (unbounded BHT). */
PredictorSpec interferenceFreeSpec();

/** Branch-allocation spec over @p assignment with @p bht_entries. */
PredictorSpec allocatedSpec(
    std::unordered_map<BranchPc, std::uint32_t> assignment,
    std::uint64_t bht_entries);

} // namespace bwsa

#endif // BWSA_PREDICT_FACTORY_HH
