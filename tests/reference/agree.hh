/**
 * @file
 * The agree predictor (Sprangle, Chappell, Alsup & Patt, ISCA 1997 --
 * reference [18] of the paper).
 *
 * Instead of storing taken/not-taken in the PHT, each counter stores
 * whether the branch will *agree* with a per-branch bias bit set on
 * first encounter.  Two branches aliasing to the same PHT entry then
 * interfere destructively only when one agrees and the other
 * disagrees with their respective biases -- much rarer than opposite
 * outcomes -- converting negative interference into neutral or
 * positive interference.
 *
 * The paper positions branch allocation as the compiler-driven
 * alternative to such hardware de-interference schemes, so the agree
 * predictor is the natural extra baseline for the evaluation
 * harnesses.
 */

#ifndef BWSA_REFERENCE_AGREE_HH
#define BWSA_REFERENCE_AGREE_HH

#include <unordered_map>
#include <vector>

#include "reference/predictor.hh"
#include "util/sat_counter.hh"

namespace bwsa
{

/**
 * gshare-indexed agree predictor with first-time bias bits.
 */
class AgreePredictor : public Predictor
{
  public:
    /**
     * @param history_bits global history length; PHT has 2^bits
     *                     agree counters
     * @param counter_bits agree counter width
     * @param insn_shift   instruction alignment shift
     */
    explicit AgreePredictor(unsigned history_bits = 12,
                            unsigned counter_bits = 2,
                            unsigned insn_shift = 3);

    bool predict(BranchPc pc) override;
    void update(BranchPc pc, bool taken) override;
    std::string name() const override;
    void reset() override;

    /** Number of branches with an established bias bit. */
    std::size_t biasedBranches() const { return _bias.size(); }

  private:
    std::uint64_t phtIndex(BranchPc pc) const;

    /** Bias bit per static branch, set at first execution. */
    bool biasOf(BranchPc pc, bool first_outcome);

    HistoryRegister _history;
    unsigned _counter_bits;
    unsigned _shift;
    std::vector<SatCounter> _pht;
    std::unordered_map<BranchPc, bool> _bias;
};

} // namespace bwsa

#endif // BWSA_REFERENCE_AGREE_HH
