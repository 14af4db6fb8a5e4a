/**
 * @file
 * Per-static-branch execution statistics collected in one pass over a
 * dynamic branch trace.
 *
 * These counts feed Table 1 (dynamic branch totals and coverage of the
 * analyzed subset), the dynamic weighting of working-set sizes in
 * Table 2, and the bias classification of Section 5.2.
 */

#ifndef BWSA_TRACE_TRACE_STATS_HH
#define BWSA_TRACE_TRACE_STATS_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "trace/trace.hh"

namespace bwsa
{

/** Aggregate execution counts for one static branch. */
struct BranchCounts
{
    std::uint64_t executed = 0; ///< dynamic instances
    std::uint64_t taken = 0;    ///< instances resolved taken

    /** Fraction of instances taken; 0 when never executed. */
    double
    takenRate() const
    {
        return executed ? static_cast<double>(taken) /
                              static_cast<double>(executed)
                        : 0.0;
    }
};

/**
 * TraceSink accumulating per-branch and whole-trace statistics.
 */
class TraceStatsCollector : public TraceSink
{
  public:
    /** One-record block. */
    void onBranch(const BranchRecord &record) override;

    /** The counting kernel: one table update per record. */
    void onBlock(std::span<const BranchRecord> records) override;

    /** Total dynamic conditional branches seen. */
    std::uint64_t dynamicBranches() const { return _dynamic; }

    /** Total dynamic taken branches. */
    std::uint64_t dynamicTaken() const { return _taken; }

    /** Number of distinct static branches seen. */
    std::size_t staticBranches() const { return _counts.size(); }

    /** Highest timestamp observed (= instructions retired). */
    std::uint64_t lastTimestamp() const { return _last_timestamp; }

    /** Counts for one branch; zeros if never seen. */
    BranchCounts counts(BranchPc pc) const;

    /** The full per-branch table. */
    const std::unordered_map<BranchPc, BranchCounts> &table() const
    {
        return _counts;
    }

    /**
     * Static branches ordered by decreasing dynamic execution count
     * (ties broken by ascending PC for determinism).
     */
    std::vector<BranchPc> branchesByFrequency() const;

    /** Reset to empty. */
    void clear();

    /**
     * Bulk-add @p counts for @p pc, as if the branch had been seen
     * that many times; whole-trace totals update accordingly.  Used
     * by the persistence layer to rebuild a collector from a
     * serialized profile artifact.
     */
    void restoreCounts(BranchPc pc, const BranchCounts &counts);

    /** Raise the last-seen timestamp to at least @p timestamp. */
    void restoreLastTimestamp(std::uint64_t timestamp);

  private:
    std::unordered_map<BranchPc, BranchCounts> _counts;
    std::uint64_t _dynamic = 0;
    std::uint64_t _taken = 0;
    std::uint64_t _last_timestamp = 0;
};

} // namespace bwsa

#endif // BWSA_TRACE_TRACE_STATS_HH
