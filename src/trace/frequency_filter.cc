#include "trace/frequency_filter.hh"

#include "obs/metrics.hh"
#include "obs/phase_tracer.hh"
#include "util/logging.hh"

namespace bwsa
{

FrequencySelection
selectByFrequency(const TraceStatsCollector &stats,
                  double target_coverage, std::size_t max_static)
{
    BWSA_SPAN("trace.frequency_select");
    if (target_coverage <= 0.0 || target_coverage > 1.0)
        bwsa_fatal("selectByFrequency coverage must be in (0, 1], got ",
                   target_coverage);

    FrequencySelection sel;
    sel.total_dynamic = stats.dynamicBranches();

    std::uint64_t needed = static_cast<std::uint64_t>(
        target_coverage * static_cast<double>(sel.total_dynamic));

    for (BranchPc pc : stats.branchesByFrequency()) {
        if (max_static != 0 && sel.selected.size() >= max_static)
            break;
        if (sel.analyzed_dynamic >= needed)
            break;
        sel.selected.insert(pc);
        sel.analyzed_dynamic += stats.counts(pc).executed;
    }

    auto &registry = obs::MetricsRegistry::global();
    registry.counter("select.runs").inc();
    registry.counter("select.static_kept").inc(sel.selected.size());
    registry.counter("select.analyzed_dynamic")
        .inc(sel.analyzed_dynamic);
    registry.counter("select.total_dynamic").inc(sel.total_dynamic);
    return sel;
}

FilteredSink::FilteredSink(const FrequencySelection &selection,
                           TraceSink &inner)
    : _inner(inner)
{
    for (BranchPc pc : selection.selected)
        _selected.add(pc);
}

} // namespace bwsa
