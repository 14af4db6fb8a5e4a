/**
 * @file
 * Frequency-based static branch selection.
 *
 * The paper reduces the static branch population of each benchmark
 * "based on the frequency of occurrences" so that the analysis stays
 * tractable, then reports in Table 1 what fraction of the dynamic
 * stream the retained branches cover (99.8%+ for most benchmarks,
 * 93.74% for gcc).  FrequencySelection reproduces that reduction: it
 * keeps the hottest static branches until a target coverage of the
 * dynamic stream is reached, optionally capped at a static budget.
 */

#ifndef BWSA_TRACE_FREQUENCY_FILTER_HH
#define BWSA_TRACE_FREQUENCY_FILTER_HH

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "trace/trace.hh"
#include "trace/trace_stats.hh"
#include "util/slot_table.hh"

namespace bwsa
{

/** Result of a frequency-based branch selection. */
struct FrequencySelection
{
    /** Retained static branches. */
    std::unordered_set<BranchPc> selected;

    /** Total dynamic branches in the profiled stream. */
    std::uint64_t total_dynamic = 0;

    /** Dynamic branches covered by the retained static set. */
    std::uint64_t analyzed_dynamic = 0;

    /** Coverage of the dynamic stream by the retained set. */
    double
    coverage() const
    {
        return total_dynamic
                   ? static_cast<double>(analyzed_dynamic) /
                         static_cast<double>(total_dynamic)
                   : 0.0;
    }

    /** True when @p pc survived the selection. */
    bool contains(BranchPc pc) const { return selected.count(pc) != 0; }
};

/**
 * Select the hottest static branches until @p target_coverage of the
 * dynamic stream is covered.
 *
 * @param stats           per-branch counts from a profiling pass
 * @param target_coverage fraction of dynamic branches to cover (0, 1]
 * @param max_static      optional cap on retained static branches
 *                        (0 = unlimited); the cap wins over coverage
 */
FrequencySelection selectByFrequency(const TraceStatsCollector &stats,
                                     double target_coverage,
                                     std::size_t max_static = 0);

/**
 * Pass-through sink forwarding only records whose branch survived a
 * FrequencySelection; everything else is dropped, exactly like the
 * paper's reduced-branch analysis runs.  The selected pcs are copied
 * once, at construction, into a SlotTable (util/slot_table.hh), so
 * each record costs one probe of a flat array rather than a
 * node-based set lookup.  Each block is compacted into the sink's own buffer and
 * forwarded as one block.
 */
class FilteredSink : public TraceSink
{
  public:
    /**
     * @p selection is read here only; @p inner is not owned and must
     * outlive the sink.
     */
    FilteredSink(const FrequencySelection &selection, TraceSink &inner);

    /** One-record block. */
    void
    onBranch(const BranchRecord &record) override
    {
        FilteredSink::onBlock({&record, 1});
    }

    void
    onBlock(std::span<const BranchRecord> records) override
    {
        if (_kept.size() < records.size())
            _kept.resize(records.size());
        std::size_t kept = 0;
        for (const BranchRecord &record : records)
            if (selected(record.pc))
                _kept[kept++] = record;
        _dropped += records.size() - kept;
        if (kept != 0)
            _inner.onBlock({_kept.data(), kept});
    }

    void onEnd() override { _inner.onEnd(); }

    /** Done when the downstream sink is done (early-stop protocol). */
    bool done() const override { return _inner.done(); }

    /**
     * Records dropped so far: every rejected record of the blocks
     * delivered, including those after a record that made the inner
     * sink done within a block.
     */
    std::uint64_t dropped() const { return _dropped; }

  private:
    /** True when @p pc survived the selection. */
    bool
    selected(BranchPc pc) const
    {
        return _selected.find(pc) != SlotTable::npos;
    }

    SlotTable _selected; ///< the selected pcs
    TraceSink &_inner;
    std::vector<BranchRecord> _kept; ///< holds the compacted block
    std::uint64_t _dropped = 0;
};

} // namespace bwsa

#endif // BWSA_TRACE_FREQUENCY_FILTER_HH
