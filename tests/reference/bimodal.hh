/**
 * @file
 * One-level (bimodal) predictor: a table of saturating counters
 * indexed by the branch PC.
 */

#ifndef BWSA_REFERENCE_BIMODAL_HH
#define BWSA_REFERENCE_BIMODAL_HH

#include <vector>

#include "reference/index_policy.hh"
#include "reference/predictor.hh"
#include "util/sat_counter.hh"

namespace bwsa
{

/**
 * Smith's bimodal predictor over an arbitrary index policy.
 */
class BimodalPredictor : public Predictor
{
  public:
    /**
     * @param indexer      PC-to-entry mapping (owned)
     * @param counter_bits counter width (2 is standard)
     */
    explicit BimodalPredictor(BhtIndexerPtr indexer,
                              unsigned counter_bits = 2);

    bool predict(BranchPc pc) override;
    void update(BranchPc pc, bool taken) override;
    std::string name() const override;
    void reset() override;

  private:
    SatCounter &entry(BranchPc pc);

    BhtIndexerPtr _indexer;
    unsigned _counter_bits;
    std::vector<SatCounter> _table;
};

} // namespace bwsa

#endif // BWSA_REFERENCE_BIMODAL_HH
