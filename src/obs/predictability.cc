#include "obs/predictability.hh"

#include "util/logging.hh"
#include "util/strutil.hh"

namespace bwsa::obs
{

std::vector<double>
defaultEntropyBinEdges()
{
    // Order-4 conditional history entropy in bits: < 0.3 is loop-like
    // (history predicts almost everything), >= 0.9 is effectively a
    // coin flip no predictor can learn.
    return {0.3, 0.6, 0.9};
}

PredictabilityBinner::PredictabilityBinner(std::vector<double> edges)
    : _edges(std::move(edges))
{
    if (_edges.empty())
        bwsa_fatal("predictability binner needs at least one edge");
    for (std::size_t i = 0; i < _edges.size(); ++i) {
        if (_edges[i] < 0.0)
            bwsa_fatal("predictability bin edges must be >= 0, got ",
                       _edges[i]);
        if (i > 0 && _edges[i] <= _edges[i - 1])
            bwsa_fatal("predictability bin edges must be strictly "
                       "ascending, got ", _edges[i - 1], " then ",
                       _edges[i]);
    }
}

std::size_t
PredictabilityBinner::binOf(double entropy_bits) const
{
    for (std::size_t i = 0; i < _edges.size(); ++i)
        if (entropy_bits < _edges[i])
            return i;
    return _edges.size();
}

std::string
PredictabilityBinner::label(std::size_t bin) const
{
    if (bin > _edges.size())
        bwsa_fatal("predictability bin ", bin, " out of range (",
                   binCount(), " bins)");
    if (bin == _edges.size())
        return "H>=" + fixedString(_edges.back(), 2);
    const double lo = bin == 0 ? 0.0 : _edges[bin - 1];
    std::string out = "[";
    out += fixedString(lo, 2);
    out += ',';
    out += fixedString(_edges[bin], 2);
    out += ')';
    return out;
}

double
PredictabilityBinStats::baseMissPercent() const
{
    if (executed == 0)
        return 0.0;
    return 100.0 * static_cast<double>(base_miss) /
           static_cast<double>(executed);
}

double
PredictabilityBinStats::allocMissPercent() const
{
    if (executed == 0)
        return 0.0;
    return 100.0 * static_cast<double>(alloc_miss) /
           static_cast<double>(executed);
}

double
PredictabilityBinStats::payoffPercent() const
{
    if (base_miss == 0)
        return 0.0;
    const double base = static_cast<double>(base_miss);
    const double alloc = static_cast<double>(alloc_miss);
    return 100.0 * (base - alloc) / base;
}

double
PredictabilityBinStats::victimsEliminatedPercent() const
{
    if (base_victims == 0)
        return 0.0;
    const double base = static_cast<double>(base_victims);
    const double alloc = static_cast<double>(alloc_victims);
    return 100.0 * (base - alloc) / base;
}

} // namespace bwsa::obs
