#include "sim/cluster_analysis.hh"

#include <deque>
#include <unordered_map>
#include <unordered_set>

#include "sim/batched_replay.hh"
#include "util/logging.hh"

namespace bwsa
{

namespace
{

/**
 * Streaming sink combining prediction, burst detection, and
 * windowed working-set shift detection in one pass.
 */
class ClusterSink : public TraceSink
{
  public:
    ClusterSink(const PredictorSpec &spec, const ClusterConfig &config,
                ClusterReport &report)
        : _config(config), _report(report)
    {
        _replayer.addLane(spec);
    }

    void
    onBranch(const BranchRecord &record) override
    {
        // The record missed when the lane's miss count moved.
        _replayer.onBranch(record);
        bool miss = _replayer.stats(0).mispredicts.events() !=
                    _report.misses;

        ++_report.branches;
        if (miss)
            ++_report.misses;

        // --- shift proximity accounting.
        if (_since_shift < _config.aftermath) {
            _report.near_shift.record(miss);
            ++_since_shift;
        } else {
            _report.steady.record(miss);
        }

        // --- burst detection.
        if (miss) {
            if (_gap > _config.burst_gap && _run_misses > 0)
                closeRun();
            ++_run_misses;
            _gap = 0;
        } else if (_run_misses > 0) {
            ++_gap;
            if (_gap > _config.burst_gap)
                closeRun();
        }

        // --- working-set window tracking.
        _window.insert(record.pc);
        if (++_in_window >= _config.window) {
            closeWindow();
            _in_window = 0;
        }
    }

    void
    onEnd() override
    {
        closeRun();
        if (_report.bursts > 0)
            _report.avg_burst_length =
                static_cast<double>(_report.burst_misses) /
                static_cast<double>(_report.bursts);
    }

  private:
    void
    closeRun()
    {
        if (_run_misses >= _config.burst_min) {
            ++_report.bursts;
            _report.burst_misses += _run_misses;
        }
        _run_misses = 0;
        _gap = 0;
    }

    void
    closeWindow()
    {
        // Novelty: share of this window's distinct branches that the
        // resident set (union of recent windows) has not seen.
        if (!_resident_counts.empty() || !_history.empty()) {
            std::size_t fresh = 0;
            for (BranchPc pc : _window)
                fresh += (_resident_counts.count(pc) == 0);
            double novelty =
                _window.empty()
                    ? 0.0
                    : static_cast<double>(fresh) /
                          static_cast<double>(_window.size());
            if (novelty > _config.shift_novelty) {
                ++_report.shifts;
                _since_shift = 0;
            }
        }

        // Roll the window into the resident set.
        for (BranchPc pc : _window)
            ++_resident_counts[pc];
        _history.push_back(std::move(_window));
        _window.clear();
        if (_history.size() > _config.resident_windows) {
            for (BranchPc pc : _history.front()) {
                auto it = _resident_counts.find(pc);
                if (--it->second == 0)
                    _resident_counts.erase(it);
            }
            _history.pop_front();
        }
    }

    BatchedReplayer _replayer;
    const ClusterConfig &_config;
    ClusterReport &_report;

    std::size_t _run_misses = 0;   ///< misses in the open run
    std::size_t _gap = 0;          ///< correct branches since a miss

    std::unordered_set<BranchPc> _window;
    std::deque<std::unordered_set<BranchPc>> _history;
    std::unordered_map<BranchPc, int> _resident_counts;
    std::size_t _in_window = 0;
    std::size_t _since_shift = ~std::size_t(0) / 2; ///< start steady
};

} // namespace

ClusterReport
analyzeMispredictionClustering(const TraceSource &source,
                               const PredictorSpec &spec,
                               const ClusterConfig &config)
{
    if (config.window == 0)
        bwsa_panic("ClusterConfig window must be nonzero");
    ClusterReport report;
    ClusterSink sink(spec, config, report);
    source.replay(sink);
    return report;
}

} // namespace bwsa
