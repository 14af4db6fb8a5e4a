/**
 * @file
 * Profile-static filtering of classified branches (the Section 5.2
 * ISA option: "If a target ISA allows, these highly biased
 * conditional branches can be statically predicted reducing the
 * requirements of a hardware predictor").
 *
 * Branches the profile classifies as highly biased are predicted
 * statically in their bias direction and never touch the dynamic
 * predictor's tables; only mixed branches reach the wrapped
 * predictor, which both removes the biased branches' table pressure
 * and keeps their (occasionally wrong) outcomes out of shared
 * history.
 */

#ifndef BWSA_REFERENCE_STATIC_FILTER_HH
#define BWSA_REFERENCE_STATIC_FILTER_HH

#include <unordered_map>

#include "reference/predictor.hh"

namespace bwsa
{

/**
 * Wrapper routing profile-biased branches to static predictions.
 */
class StaticFilterPredictor : public Predictor
{
  public:
    /**
     * @param static_directions biased branches and their directions
     * @param inner             dynamic predictor for mixed branches
     *                          (owned)
     */
    StaticFilterPredictor(
        std::unordered_map<BranchPc, bool> static_directions,
        PredictorPtr inner);

    bool predict(BranchPc pc) override;
    void update(BranchPc pc, bool taken) override;
    std::string name() const override;
    void reset() override;

    /** Branches handled statically. */
    std::size_t staticCount() const { return _directions.size(); }

    /** Dynamic instances absorbed by the static side so far. */
    std::uint64_t staticInstances() const { return _static_instances; }

  private:
    std::unordered_map<BranchPc, bool> _directions;
    PredictorPtr _inner;
    std::uint64_t _static_instances = 0;
};

} // namespace bwsa

#endif // BWSA_REFERENCE_STATIC_FILTER_HH
