#include "reference/bimodal.hh"

#include "util/logging.hh"

namespace bwsa
{

BimodalPredictor::BimodalPredictor(BhtIndexerPtr indexer,
                                   unsigned counter_bits)
    : _indexer(std::move(indexer)), _counter_bits(counter_bits)
{
    if (!_indexer)
        bwsa_panic("BimodalPredictor requires an indexer");
    std::uint64_t entries = _indexer->tableSize();
    if (entries != 0)
        _table.assign(entries,
                      SatCounter(_counter_bits,
                                 static_cast<std::uint8_t>(
                                     (1u << _counter_bits) >> 1)));
}

SatCounter &
BimodalPredictor::entry(BranchPc pc)
{
    std::uint64_t idx = _indexer->index(pc);
    if (idx >= _table.size()) {
        // Unbounded policies grow the table on demand.
        _table.resize(idx + 1,
                      SatCounter(_counter_bits,
                                 static_cast<std::uint8_t>(
                                     (1u << _counter_bits) >> 1)));
    }
    return _table[idx];
}

bool
BimodalPredictor::predict(BranchPc pc)
{
    return entry(pc).predictTaken();
}

void
BimodalPredictor::update(BranchPc pc, bool taken)
{
    entry(pc).update(taken);
}

std::string
BimodalPredictor::name() const
{
    return "bimodal(" + _indexer->name() + ")";
}

void
BimodalPredictor::reset()
{
    for (SatCounter &c : _table)
        c.set(static_cast<std::uint8_t>((1u << _counter_bits) >> 1));
}

} // namespace bwsa
