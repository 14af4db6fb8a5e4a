/**
 * @file
 * McFarling-style tournament (hybrid) predictor: two component
 * predictors and a chooser table of saturating counters that learns,
 * per branch address, which component to trust.
 */

#ifndef BWSA_REFERENCE_TOURNAMENT_HH
#define BWSA_REFERENCE_TOURNAMENT_HH

#include <vector>

#include "reference/predictor.hh"
#include "util/sat_counter.hh"

namespace bwsa
{

/**
 * Combining predictor with a PC-indexed chooser.
 */
class TournamentPredictor : public Predictor
{
  public:
    /**
     * @param first          component favoured when the chooser is low
     * @param second         component favoured when the chooser is high
     * @param chooser_entries chooser table size
     */
    TournamentPredictor(PredictorPtr first, PredictorPtr second,
                        std::uint64_t chooser_entries = 4096,
                        unsigned insn_shift = 3);

    bool predict(BranchPc pc) override;
    void update(BranchPc pc, bool taken) override;
    std::string name() const override;
    void reset() override;

  private:
    SatCounter &chooser(BranchPc pc);

    PredictorPtr _first;
    PredictorPtr _second;
    unsigned _shift;
    std::vector<SatCounter> _chooser;

    // predict() latches both component predictions so update() can
    // train the chooser on which component was right.
    bool _last_first = false;
    bool _last_second = false;
    BranchPc _last_pc = 0;
    bool _have_last = false;
};

} // namespace bwsa

#endif // BWSA_REFERENCE_TOURNAMENT_HH
