#include "reference/bpred_sim.hh"

#include "obs/metrics.hh"
#include "obs/phase_tracer.hh"

namespace bwsa
{

PredictionSim::PredictionSim(Predictor &predictor, bool per_branch)
    : _predictor(predictor), _per_branch(per_branch)
{
    _stats.predictor_name = predictor.name();
}

void
PredictionSim::onBranch(const BranchRecord &record)
{
    bool predicted = _predictor.predict(record.pc);
    bool miss = (predicted != record.taken);
    _stats.mispredicts.record(miss);
    if (_per_branch)
        _stats.per_branch[record.pc].record(miss);
    _predictor.update(record.pc, record.taken);
}

namespace
{

/**
 * Counter handles resolved once: counter(name) takes the registry
 * mutex, and parallel sweep cells flush after every replay, so the
 * by-name lookup must not sit on that path.
 */
obs::Counter &
branchesCounter()
{
    static obs::Counter counter =
        obs::MetricsRegistry::global().counter("sim.branches");
    return counter;
}

obs::Counter &
mispredictsCounter()
{
    static obs::Counter counter =
        obs::MetricsRegistry::global().counter("sim.mispredicts");
    return counter;
}

/** One per trace replay, however many predictors consumed it. */
obs::Counter &
runsCounter()
{
    static obs::Counter counter =
        obs::MetricsRegistry::global().counter("sim.runs");
    return counter;
}

/** One per (predictor, trace replay) pair. */
obs::Counter &
predictorRunsCounter()
{
    static obs::Counter counter =
        obs::MetricsRegistry::global().counter("sim.predictor_runs");
    return counter;
}

} // namespace

void
PredictionSim::onEnd()
{
    // Whole-replay totals only; onBranch() is the simulator hot path
    // and stays uninstrumented.
    branchesCounter().inc(_stats.mispredicts.total() -
                          _flushed_branches);
    mispredictsCounter().inc(_stats.mispredicts.events() -
                             _flushed_mispredicts);
    _flushed_branches = _stats.mispredicts.total();
    _flushed_mispredicts = _stats.mispredicts.events();
}

PredictionStats
simulatePredictor(const TraceSource &source, Predictor &predictor,
                  bool per_branch)
{
    BWSA_SPAN("sim.replay");
    runsCounter().inc();
    predictorRunsCounter().inc();
    PredictionSim sim(predictor, per_branch);
    source.replay(sim);
    return sim.stats();
}

std::vector<PredictionStats>
comparePredictors(const TraceSource &source,
                  const std::vector<Predictor *> &predictors,
                  bool per_branch)
{
    obs::PhaseTracer::Span span("sim.compare");
    span.addWork(predictors.size());
    runsCounter().inc();
    predictorRunsCounter().inc(predictors.size());
    std::vector<PredictionSim> sims;
    sims.reserve(predictors.size());
    FanoutSink fanout;
    for (Predictor *p : predictors) {
        sims.emplace_back(*p, per_branch);
        // Safe: sims is reserved, so elements never relocate.
        fanout.addSink(sims.back());
    }
    source.replay(fanout);

    std::vector<PredictionStats> out;
    out.reserve(sims.size());
    for (const PredictionSim &sim : sims)
        out.push_back(sim.stats());
    return out;
}

} // namespace bwsa
