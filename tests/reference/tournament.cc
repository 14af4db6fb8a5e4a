#include "reference/tournament.hh"

#include "util/logging.hh"

namespace bwsa
{

TournamentPredictor::TournamentPredictor(PredictorPtr first,
                                         PredictorPtr second,
                                         std::uint64_t chooser_entries,
                                         unsigned insn_shift)
    : _first(std::move(first)), _second(std::move(second)),
      _shift(insn_shift),
      _chooser(chooser_entries, SatCounter(2, 1))
{
    if (!_first || !_second)
        bwsa_panic("TournamentPredictor requires two components");
    if (chooser_entries == 0)
        bwsa_panic("TournamentPredictor requires a nonzero chooser");
}

SatCounter &
TournamentPredictor::chooser(BranchPc pc)
{
    return _chooser[(pc >> _shift) % _chooser.size()];
}

bool
TournamentPredictor::predict(BranchPc pc)
{
    _last_first = _first->predict(pc);
    _last_second = _second->predict(pc);
    _last_pc = pc;
    _have_last = true;
    return chooser(pc).predictTaken() ? _last_second : _last_first;
}

void
TournamentPredictor::update(BranchPc pc, bool taken)
{
    // Re-derive component predictions if the caller skipped predict().
    if (!_have_last || _last_pc != pc) {
        _last_first = _first->predict(pc);
        _last_second = _second->predict(pc);
    }
    _have_last = false;

    bool first_right = (_last_first == taken);
    bool second_right = (_last_second == taken);
    if (first_right != second_right) {
        // Chooser moves toward the component that was right.
        chooser(pc).update(second_right);
    }
    _first->update(pc, taken);
    _second->update(pc, taken);
}

std::string
TournamentPredictor::name() const
{
    return "tournament(" + _first->name() + "," + _second->name() + ")";
}

void
TournamentPredictor::reset()
{
    _first->reset();
    _second->reset();
    for (SatCounter &c : _chooser)
        c = SatCounter(2, 1);
    _have_last = false;
}

} // namespace bwsa
