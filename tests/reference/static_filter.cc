#include "reference/static_filter.hh"

#include "util/logging.hh"

namespace bwsa
{

StaticFilterPredictor::StaticFilterPredictor(
    std::unordered_map<BranchPc, bool> static_directions,
    PredictorPtr inner)
    : _directions(std::move(static_directions)),
      _inner(std::move(inner))
{
    if (!_inner)
        bwsa_panic("StaticFilterPredictor requires an inner predictor");
}

bool
StaticFilterPredictor::predict(BranchPc pc)
{
    auto it = _directions.find(pc);
    if (it != _directions.end())
        return it->second;
    return _inner->predict(pc);
}

void
StaticFilterPredictor::update(BranchPc pc, bool taken)
{
    if (_directions.count(pc)) {
        // Statically predicted: no table update, no history pollution.
        ++_static_instances;
        return;
    }
    _inner->update(pc, taken);
}

std::string
StaticFilterPredictor::name() const
{
    return "static-filter(" + std::to_string(_directions.size()) +
           "," + _inner->name() + ")";
}

void
StaticFilterPredictor::reset()
{
    _inner->reset();
    _static_instances = 0;
}

} // namespace bwsa
