#include "reference/agree.hh"

#include "util/bitfield.hh"

namespace bwsa
{

namespace
{

SatCounter
agreeInitial(unsigned bits)
{
    // Start strongly agreeing: the bias bit is usually right.
    return SatCounter(bits,
                      static_cast<std::uint8_t>((1u << bits) - 1u));
}

} // namespace

AgreePredictor::AgreePredictor(unsigned history_bits,
                               unsigned counter_bits,
                               unsigned insn_shift)
    : _history(history_bits), _counter_bits(counter_bits),
      _shift(insn_shift),
      _pht(std::size_t(1) << history_bits, agreeInitial(counter_bits))
{
}

std::uint64_t
AgreePredictor::phtIndex(BranchPc pc) const
{
    return (_history.value() ^ (pc >> _shift)) &
           lowMask(_history.bits());
}

bool
AgreePredictor::biasOf(BranchPc pc, bool first_outcome)
{
    return _bias.emplace(pc, first_outcome).first->second;
}

bool
AgreePredictor::predict(BranchPc pc)
{
    auto it = _bias.find(pc);
    // Unknown branch: no bias bit yet; predict taken (backward-taken
    // heuristics are unavailable without target addresses).
    bool bias = it == _bias.end() ? true : it->second;
    bool agree = _pht[phtIndex(pc)].predictTaken();
    return agree ? bias : !bias;
}

void
AgreePredictor::update(BranchPc pc, bool taken)
{
    // The bias bit latches the branch's first outcome.
    bool bias = biasOf(pc, taken);
    _pht[phtIndex(pc)].update(taken == bias);
    _history.push(taken);
}

std::string
AgreePredictor::name() const
{
    return "agree-h" + std::to_string(_history.bits());
}

void
AgreePredictor::reset()
{
    _history.clear();
    _bias.clear();
    for (SatCounter &c : _pht)
        c = agreeInitial(_counter_bits);
}

} // namespace bwsa
