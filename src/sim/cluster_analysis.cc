#include "sim/cluster_analysis.hh"

#include "sim/batched_replay.hh"

namespace bwsa
{

namespace
{

/**
 * Fold over one predictor lane's miss bits, combining burst detection
 * and phase-boundary (working-set shift) detection in one pass.
 */
class ClusterFold
{
  public:
    ClusterFold(const ClusterConfig &config, ClusterReport &report)
        : _config(config), _report(report), _windows(config.interval),
          _detector(config.interval, config.phases)
    {
    }

    void
    onBlock(const ReplayBlock &block, const std::uint8_t *miss_bits)
    {
        for (std::size_t i = 0; i < block.size; ++i) {
            const bool miss = miss_bits[i] != 0;
            ++_report.branches;
            if (miss)
                ++_report.misses;

            // --- shift detection: a record past the open window
            // closes it, so a boundary window's aftermath starts at
            // this record.
            _windows.sample(block.pc[i], block.timestamp[i]);
            drainShifts();

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
        }
    }

    void
    finish()
    {
        // The tail window's boundary counts; its aftermath is empty.
        _windows.finish();
        drainShifts();
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
    drainShifts()
    {
        if (std::size_t opened = _detector.observeNew(_windows)) {
            _report.shifts += opened;
            _since_shift = 0;
        }
    }

    const ClusterConfig &_config;
    ClusterReport &_report;

    std::size_t _run_misses = 0;   ///< misses in the open run
    std::size_t _gap = 0;          ///< correct branches since a miss

    obs::PhaseAccumulator _windows;
    obs::PhaseDetector _detector;
    std::size_t _since_shift = ~std::size_t(0) / 2; ///< start steady
};

} // namespace

ClusterReport
analyzeMispredictionClustering(const TraceSource &source,
                               const PredictorSpec &spec,
                               const ClusterConfig &config)
{
    ClusterReport report;
    ClusterFold fold(config, report);
    BatchedReplayer replayer;
    replayer.addLane(spec);
    replayer.foldMisses(0, [&fold](const ReplayBlock &block,
                                   const std::uint8_t *miss) {
        fold.onBlock(block, miss);
    });
    replayer.replay(source);
    fold.finish();
    return report;
}

} // namespace bwsa
