/**
 * @file
 * Two-level adaptive predictors (Yeh & Patt).
 *
 * The first level records branch history (globally, or per-branch in
 * a BHT); the second level is a pattern history table (PHT) of
 * saturating counters indexed by that history.  The paper's baseline
 * is PAg -- per-address history, one global PHT -- with a 1024-entry
 * BHT and a 4096-entry PHT (12 history bits); branch allocation
 * changes only the BHT index policy.
 */

#ifndef BWSA_REFERENCE_TWOLEVEL_HH
#define BWSA_REFERENCE_TWOLEVEL_HH

#include <memory>
#include <vector>

#include "reference/index_policy.hh"
#include "predict/interference.hh"
#include "reference/predictor.hh"
#include "util/sat_counter.hh"

namespace bwsa
{

/**
 * GAg: one global history register, one global PHT.
 */
class GAgPredictor : public Predictor
{
  public:
    /** @param history_bits global history length; PHT has 2^bits */
    explicit GAgPredictor(unsigned history_bits = 12,
                          unsigned counter_bits = 2);

    bool predict(BranchPc pc) override;
    void update(BranchPc pc, bool taken) override;
    std::string name() const override;
    void reset() override;

  private:
    HistoryRegister _history;
    unsigned _counter_bits;
    std::vector<SatCounter> _pht;
};

/**
 * gshare (McFarling): global history XOR branch address indexes the
 * PHT, de-aliasing branches that share history patterns.
 */
class GsharePredictor : public Predictor
{
  public:
    explicit GsharePredictor(unsigned history_bits = 12,
                             unsigned counter_bits = 2,
                             unsigned insn_shift = 3);

    bool predict(BranchPc pc) override;
    void update(BranchPc pc, bool taken) override;
    std::string name() const override;
    void reset() override;

  private:
    std::uint64_t phtIndex(BranchPc pc) const;

    HistoryRegister _history;
    unsigned _counter_bits;
    unsigned _shift;
    std::vector<SatCounter> _pht;
};

/**
 * PAg: per-address history registers in a BHT (indexed by a pluggable
 * policy), one shared PHT indexed by the history pattern.
 *
 * This is the paper's experimental vehicle.  With a ModuloIndexer it
 * is the conventional baseline; with an AllocatedIndexer it is the
 * branch-allocation predictor; with an IdealIndexer (tableSize 0, BHT
 * grows per branch) it is the interference-free reference.
 */
class PAgPredictor : public Predictor
{
  public:
    /**
     * @param indexer      BHT index policy (owned)
     * @param history_bits per-branch history length
     * @param pht_entries  PHT size; counters indexed history % size
     */
    PAgPredictor(BhtIndexerPtr indexer, unsigned history_bits = 12,
                 std::uint64_t pht_entries = 4096,
                 unsigned counter_bits = 2);

    bool predict(BranchPc pc) override;
    void update(BranchPc pc, bool taken) override;
    std::string name() const override;
    void reset() override;

    /** Current BHT size (grows for unbounded policies). */
    std::size_t bhtSize() const { return _bht.size(); }

    /**
     * Attach the BHT interference attribution probe (see
     * interference.hh).  Passive: predictions and table state are
     * identical with and without it; update() additionally classifies
     * every resolved prediction against the branch's private shadow
     * history.  Idempotent; reset() clears the probe's state too.
     */
    void enableInterferenceProbe();

    /** The attached probe; nullptr when none was enabled. */
    const BhtInterferenceProbe *interferenceProbe() const
    {
        return _probe.get();
    }

  private:
    HistoryRegister &bhtEntry(BranchPc pc);
    void probeObserve(std::uint64_t idx, BranchPc pc,
                      const HistoryRegister &history, bool taken);

    BhtIndexerPtr _indexer;
    unsigned _history_bits;
    unsigned _counter_bits;
    std::vector<HistoryRegister> _bht;
    std::vector<SatCounter> _pht;
    std::unique_ptr<BhtInterferenceProbe> _probe;
};

/**
 * PAs: per-address history, per-set PHTs selected by low PC bits.
 */
class PAsPredictor : public Predictor
{
  public:
    /**
     * @param indexer      BHT index policy (owned)
     * @param history_bits per-branch history length
     * @param pht_sets     number of second-level PHT sets (power of 2)
     */
    PAsPredictor(BhtIndexerPtr indexer, unsigned history_bits = 10,
                 std::uint64_t pht_sets = 4, unsigned counter_bits = 2,
                 unsigned insn_shift = 3);

    bool predict(BranchPc pc) override;
    void update(BranchPc pc, bool taken) override;
    std::string name() const override;
    void reset() override;

  private:
    HistoryRegister &bhtEntry(BranchPc pc);
    SatCounter &phtEntry(BranchPc pc, std::uint32_t pattern);

    BhtIndexerPtr _indexer;
    unsigned _history_bits;
    unsigned _counter_bits;
    unsigned _shift;
    std::uint64_t _pht_sets;
    std::vector<HistoryRegister> _bht;
    std::vector<SatCounter> _pht; // sets * 2^history_bits counters
};

} // namespace bwsa

#endif // BWSA_REFERENCE_TWOLEVEL_HH
