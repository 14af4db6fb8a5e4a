/**
 * @file
 * Static (non-adaptive) predictors: trivial baselines and the
 * profile-guided static scheme used to pre-predict highly biased
 * branches when the allocator sets them aside (Section 5.2).
 */

#ifndef BWSA_REFERENCE_STATIC_PRED_HH
#define BWSA_REFERENCE_STATIC_PRED_HH

#include <unordered_map>

#include "reference/predictor.hh"

namespace bwsa
{

/** Predicts every branch taken (Smith's baseline strategy). */
class AlwaysTakenPredictor : public Predictor
{
  public:
    bool predict(BranchPc) override { return true; }
    void update(BranchPc, bool) override {}
    std::string name() const override { return "always-taken"; }
    void reset() override {}
};

/** Predicts every branch not taken. */
class AlwaysNotTakenPredictor : public Predictor
{
  public:
    bool predict(BranchPc) override { return false; }
    void update(BranchPc, bool) override {}
    std::string name() const override { return "always-not-taken"; }
    void reset() override {}
};

/**
 * Profile-guided static prediction: each known static branch is
 * predicted in its majority profile direction; unknown branches fall
 * back to a default.
 */
class ProfileStaticPredictor : public Predictor
{
  public:
    /**
     * @param directions  per-branch majority direction from a profile
     * @param default_taken prediction for unprofiled branches
     */
    explicit ProfileStaticPredictor(
        std::unordered_map<BranchPc, bool> directions,
        bool default_taken = true)
        : _directions(std::move(directions)),
          _default_taken(default_taken)
    {}

    bool
    predict(BranchPc pc) override
    {
        auto it = _directions.find(pc);
        return it == _directions.end() ? _default_taken : it->second;
    }

    void update(BranchPc, bool) override {}
    std::string name() const override { return "profile-static"; }
    void reset() override {}

  private:
    std::unordered_map<BranchPc, bool> _directions;
    bool _default_taken;
};

} // namespace bwsa

#endif // BWSA_REFERENCE_STATIC_PRED_HH
