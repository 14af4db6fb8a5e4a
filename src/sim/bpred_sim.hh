/**
 * @file
 * Trace-driven branch prediction simulation (the sim-bpred role).
 *
 * Drives a dynamic branch stream through one or more predictors,
 * collecting misprediction statistics overall and, optionally, per
 * static branch.  Several predictors can consume a single trace replay
 * simultaneously (comparePredictors()); that virtual-dispatch fan-out
 * is the reference the packed batched engine is tested against.
 */

#ifndef BWSA_SIM_BPRED_SIM_HH
#define BWSA_SIM_BPRED_SIM_HH

#include <string>
#include <unordered_map>
#include <vector>

#include "predict/predictor.hh"
#include "trace/trace.hh"
#include "util/stats.hh"

namespace bwsa
{

/** Outcome of simulating one predictor over one trace. */
struct PredictionStats
{
    std::string predictor_name;

    /** Aggregate misprediction ratio. */
    RatioStat mispredicts;

    /** Per-static-branch misprediction ratios (when requested). */
    std::unordered_map<BranchPc, RatioStat> per_branch;

    /** Misprediction rate in percent, the paper's reporting unit. */
    double mispredictPercent() const { return mispredicts.percent(); }

    /** Prediction accuracy in percent. */
    double
    accuracyPercent() const
    {
        return 100.0 - mispredicts.percent();
    }
};

/**
 * TraceSink wiring a predictor to the stream.
 */
class PredictionSim : public TraceSink
{
  public:
    /**
     * @param predictor   predictor under test (not owned)
     * @param per_branch  also collect per-static-branch ratios
     */
    explicit PredictionSim(Predictor &predictor,
                           bool per_branch = false);

    void onBranch(const BranchRecord &record) override;

    /**
     * Flush whole-replay totals into the metrics registry.  Safe to
     * call repeatedly (multi-source replays): only the delta since the
     * previous flush is added.
     */
    void onEnd() override;

    /** Statistics collected so far. */
    const PredictionStats &stats() const { return _stats; }

  private:
    Predictor &_predictor;
    bool _per_branch;
    PredictionStats _stats;

    /** Totals already flushed to the metrics registry. */
    std::uint64_t _flushed_branches = 0;
    std::uint64_t _flushed_mispredicts = 0;
};

/** Simulate one predictor over a full trace. */
PredictionStats simulatePredictor(const TraceSource &source,
                                  Predictor &predictor,
                                  bool per_branch = false);

/**
 * Simulate many predictors over a single replay of the trace: one
 * PredictionSim per predictor behind a FanoutSink.  This is the
 * reference oracle the batched engine (sim/batched_replay.hh) is
 * tested against; product code replays through replayBatched().
 *
 * @param source     the trace
 * @param predictors predictors under test (not owned)
 * @param per_branch also collect per-static-branch ratios for every
 *                   predictor
 * @return one PredictionStats per predictor, in input order
 */
std::vector<PredictionStats>
comparePredictors(const TraceSource &source,
                  const std::vector<Predictor *> &predictors,
                  bool per_branch = false);

} // namespace bwsa

#endif // BWSA_SIM_BPRED_SIM_HH
