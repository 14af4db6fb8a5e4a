#include "reference/twolevel.hh"

#include "util/bitfield.hh"
#include "util/logging.hh"

namespace bwsa
{

namespace
{

/** Counters start at the weakly-taken midpoint. */
SatCounter
initialCounter(unsigned bits)
{
    return SatCounter(bits,
                      static_cast<std::uint8_t>((1u << bits) >> 1));
}

} // namespace

GAgPredictor::GAgPredictor(unsigned history_bits, unsigned counter_bits)
    : _history(history_bits), _counter_bits(counter_bits),
      _pht(std::size_t(1) << history_bits, initialCounter(counter_bits))
{
}

bool
GAgPredictor::predict(BranchPc)
{
    return _pht[_history.value()].predictTaken();
}

void
GAgPredictor::update(BranchPc, bool taken)
{
    _pht[_history.value()].update(taken);
    _history.push(taken);
}

std::string
GAgPredictor::name() const
{
    return "GAg-h" + std::to_string(_history.bits());
}

void
GAgPredictor::reset()
{
    _history.clear();
    for (SatCounter &c : _pht)
        c = initialCounter(_counter_bits);
}

GsharePredictor::GsharePredictor(unsigned history_bits,
                                 unsigned counter_bits,
                                 unsigned insn_shift)
    : _history(history_bits), _counter_bits(counter_bits),
      _shift(insn_shift),
      _pht(std::size_t(1) << history_bits, initialCounter(counter_bits))
{
}

std::uint64_t
GsharePredictor::phtIndex(BranchPc pc) const
{
    return (_history.value() ^ (pc >> _shift)) &
           lowMask(_history.bits());
}

bool
GsharePredictor::predict(BranchPc pc)
{
    return _pht[phtIndex(pc)].predictTaken();
}

void
GsharePredictor::update(BranchPc pc, bool taken)
{
    _pht[phtIndex(pc)].update(taken);
    _history.push(taken);
}

std::string
GsharePredictor::name() const
{
    return "gshare-h" + std::to_string(_history.bits());
}

void
GsharePredictor::reset()
{
    _history.clear();
    for (SatCounter &c : _pht)
        c = initialCounter(_counter_bits);
}

PAgPredictor::PAgPredictor(BhtIndexerPtr indexer, unsigned history_bits,
                           std::uint64_t pht_entries,
                           unsigned counter_bits)
    : _indexer(std::move(indexer)), _history_bits(history_bits),
      _counter_bits(counter_bits)
{
    if (!_indexer)
        bwsa_panic("PAgPredictor requires an indexer");
    if (pht_entries == 0)
        bwsa_panic("PAgPredictor requires a nonzero PHT");
    std::uint64_t bht_entries = _indexer->tableSize();
    if (bht_entries != 0)
        _bht.assign(bht_entries, HistoryRegister(history_bits));
    _pht.assign(pht_entries, initialCounter(counter_bits));
}

HistoryRegister &
PAgPredictor::bhtEntry(BranchPc pc)
{
    std::uint64_t idx = _indexer->index(pc);
    if (idx >= _bht.size())
        _bht.resize(idx + 1, HistoryRegister(_history_bits));
    return _bht[idx];
}

bool
PAgPredictor::predict(BranchPc pc)
{
    std::uint32_t pattern = bhtEntry(pc).value();
    return _pht[pattern % _pht.size()].predictTaken();
}

void
PAgPredictor::update(BranchPc pc, bool taken)
{
    std::uint64_t idx = _indexer->index(pc);
    if (idx >= _bht.size())
        _bht.resize(idx + 1, HistoryRegister(_history_bits));
    HistoryRegister &history = _bht[idx];
    if (_probe)
        probeObserve(idx, pc, history, taken);
    _pht[history.value() % _pht.size()].update(taken);
    history.push(taken);
}

void
PAgPredictor::enableInterferenceProbe()
{
    if (!_probe)
        _probe = std::make_unique<BhtInterferenceProbe>(_history_bits);
}

void
PAgPredictor::probeObserve(std::uint64_t idx, BranchPc pc,
                           const HistoryRegister &history, bool taken)
{
    // The shared entry's state has not changed since predict(pc), so
    // re-deriving the prediction here reproduces what predict()
    // returned; the shadow runs the same lookup through the same PHT.
    HistoryRegister &shadow = _probe->shadow(pc);
    std::uint32_t shared_hist = history.value();
    std::uint32_t private_hist = shadow.value();
    bool pred_shared =
        _pht[shared_hist % _pht.size()].predictTaken();
    bool pred_private =
        _pht[private_hist % _pht.size()].predictTaken();
    _probe->observe(idx, pc, shared_hist, private_hist, pred_shared,
                    pred_private, taken);
    shadow.push(taken);
}

std::string
PAgPredictor::name() const
{
    std::string bht = _indexer->tableSize()
                          ? std::to_string(_indexer->tableSize())
                          : "inf";
    return "PAg(" + _indexer->name() + ",bht=" + bht +
           ",pht=" + std::to_string(_pht.size()) + ")";
}

void
PAgPredictor::reset()
{
    // Rebuild the BHT at the indexer's nominal size: unbounded
    // policies grow it on demand, and a reset predictor must not keep
    // the previous trace's footprint (or report a stale bhtSize()).
    _indexer->reset();
    std::uint64_t bht_entries = _indexer->tableSize();
    _bht.assign(bht_entries, HistoryRegister(_history_bits));
    _bht.shrink_to_fit();
    for (SatCounter &c : _pht)
        c = initialCounter(_counter_bits);
    if (_probe)
        _probe = std::make_unique<BhtInterferenceProbe>(_history_bits);
}

PAsPredictor::PAsPredictor(BhtIndexerPtr indexer, unsigned history_bits,
                           std::uint64_t pht_sets,
                           unsigned counter_bits, unsigned insn_shift)
    : _indexer(std::move(indexer)), _history_bits(history_bits),
      _counter_bits(counter_bits), _shift(insn_shift),
      _pht_sets(pht_sets)
{
    if (!_indexer)
        bwsa_panic("PAsPredictor requires an indexer");
    if (!isPowerOfTwo(pht_sets))
        bwsa_panic("PAs pht_sets must be a power of two, got ",
                   pht_sets);
    std::uint64_t bht_entries = _indexer->tableSize();
    if (bht_entries != 0)
        _bht.assign(bht_entries, HistoryRegister(history_bits));
    _pht.assign(pht_sets * (std::uint64_t(1) << history_bits),
                initialCounter(counter_bits));
}

HistoryRegister &
PAsPredictor::bhtEntry(BranchPc pc)
{
    std::uint64_t idx = _indexer->index(pc);
    if (idx >= _bht.size())
        _bht.resize(idx + 1, HistoryRegister(_history_bits));
    return _bht[idx];
}

SatCounter &
PAsPredictor::phtEntry(BranchPc pc, std::uint32_t pattern)
{
    std::uint64_t set = (pc >> _shift) & (_pht_sets - 1);
    return _pht[set * (std::uint64_t(1) << _history_bits) + pattern];
}

bool
PAsPredictor::predict(BranchPc pc)
{
    return phtEntry(pc, bhtEntry(pc).value()).predictTaken();
}

void
PAsPredictor::update(BranchPc pc, bool taken)
{
    HistoryRegister &history = bhtEntry(pc);
    phtEntry(pc, history.value()).update(taken);
    history.push(taken);
}

std::string
PAsPredictor::name() const
{
    return "PAs(" + _indexer->name() + ",sets=" +
           std::to_string(_pht_sets) + ")";
}

void
PAsPredictor::reset()
{
    // Same footprint contract as PAgPredictor::reset().
    _indexer->reset();
    std::uint64_t bht_entries = _indexer->tableSize();
    _bht.assign(bht_entries, HistoryRegister(_history_bits));
    _bht.shrink_to_fit();
    for (SatCounter &c : _pht)
        c = initialCounter(_counter_bits);
}

} // namespace bwsa
