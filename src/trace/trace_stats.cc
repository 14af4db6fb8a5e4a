#include "trace/trace_stats.hh"

#include <algorithm>

namespace bwsa
{

void
TraceStatsCollector::onBranch(const BranchRecord &record)
{
    TraceStatsCollector::onBlock({&record, 1});
}

void
TraceStatsCollector::onBlock(std::span<const BranchRecord> records)
{
    if (records.empty())
        return;
    std::uint64_t taken = 0;
    for (const BranchRecord &record : records) {
        BranchCounts &c = _counts[record.pc];
        ++c.executed;
        c.taken += record.taken;
        taken += record.taken;
    }
    _dynamic += records.size();
    _taken += taken;
    _last_timestamp = records.back().timestamp;
}

BranchCounts
TraceStatsCollector::counts(BranchPc pc) const
{
    auto it = _counts.find(pc);
    return it == _counts.end() ? BranchCounts{} : it->second;
}

std::vector<BranchPc>
TraceStatsCollector::branchesByFrequency() const
{
    std::vector<BranchPc> pcs;
    pcs.reserve(_counts.size());
    for (const auto &[pc, counts] : _counts)
        pcs.push_back(pc);
    std::sort(pcs.begin(), pcs.end(),
              [this](BranchPc a, BranchPc b) {
                  const BranchCounts &ca = _counts.at(a);
                  const BranchCounts &cb = _counts.at(b);
                  if (ca.executed != cb.executed)
                      return ca.executed > cb.executed;
                  return a < b;
              });
    return pcs;
}

void
TraceStatsCollector::restoreCounts(BranchPc pc,
                                   const BranchCounts &counts)
{
    BranchCounts &c = _counts[pc];
    c.executed += counts.executed;
    c.taken += counts.taken;
    _dynamic += counts.executed;
    _taken += counts.taken;
}

void
TraceStatsCollector::restoreLastTimestamp(std::uint64_t timestamp)
{
    if (timestamp > _last_timestamp)
        _last_timestamp = timestamp;
}

void
TraceStatsCollector::clear()
{
    _counts.clear();
    _dynamic = 0;
    _taken = 0;
    _last_timestamp = 0;
}

} // namespace bwsa
