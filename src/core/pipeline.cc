#include "core/pipeline.hh"

#include "obs/metrics.hh"
#include "obs/phase_tracer.hh"
#include "util/logging.hh"

namespace bwsa
{

AllocationPipeline::AllocationPipeline(const PipelineConfig &config)
    : _config(config)
{
    if (config.coverage <= 0.0 || config.coverage > 1.0)
        bwsa_fatal("pipeline coverage must be in (0, 1], got ",
                   config.coverage);
}

const TraceStatsCollector &
AllocationPipeline::lastStats() const
{
    if (!_stats_valid)
        bwsa_fatal("AllocationPipeline::lastStats before any "
                   "committed profile run");
    return _stats;
}

const FrequencySelection &
AllocationPipeline::lastSelection() const
{
    if (!_stats_valid)
        bwsa_fatal("AllocationPipeline::lastSelection before any "
                   "committed profile run");
    return _selection;
}

void
AllocationPipeline::importProfile(const TraceStatsCollector &stats,
                                  const FrequencySelection &selection,
                                  const ConflictGraph &graph)
{
    BWSA_SPAN("pipeline.import_profile");
    obs::MetricsRegistry::global().counter("pipeline.profiles").inc();
    _stats = stats;
    _selection = selection;
    _stats_valid = true;
    if (_profiles == 0)
        _graph = graph;
    else
        _graph.mergeFrom(graph);
    ++_profiles;
    graphChanged();
}

std::shared_ptr<const FilteredGraph>
AllocationPipeline::filtered() const
{
    std::lock_guard<std::mutex> lock(_filtered_mutex);
    if (!_filtered)
        _filtered = std::make_shared<const FilteredGraph>(
            buildFiltered(_graph, _config.allocation));
    return _filtered;
}

void
AllocationPipeline::graphChanged()
{
    std::lock_guard<std::mutex> lock(_filtered_mutex);
    _filtered.reset();
}

AllocationResult
AllocationPipeline::allocate(std::uint64_t table_size) const
{
    if (_profiles == 0)
        bwsa_fatal("AllocationPipeline::allocate before any profile");
    return allocateBranches(_graph, *filtered(), table_size,
                            _config.allocation);
}

RequiredSizeResult
AllocationPipeline::requiredSize(std::uint64_t baseline_entries,
                                 std::uint64_t max_entries) const
{
    if (_profiles == 0)
        bwsa_fatal(
            "AllocationPipeline::requiredSize before any profile");
    return requiredTableSize(_graph, *filtered(), _config.allocation,
                             baseline_entries, max_entries);
}

PredictorSpec
AllocationPipeline::predictorSpec(std::uint64_t table_size) const
{
    AllocationResult alloc = allocate(table_size);
    return allocatedSpec(std::move(alloc.assignment), table_size);
}

PredictorSpec
AllocationPipeline::staticFilterSpec(std::uint64_t table_size) const
{
    if (!_config.allocation.use_classification)
        bwsa_fatal("staticFilterSpec requires classification to be "
                   "enabled in the pipeline config");

    PredictorSpec spec = predictorSpec(table_size);
    spec.kind = PredictorKind::StaticFilteredPAg;

    BranchClassifier classifier(_config.allocation.bias_cutoff);
    for (const ConflictNode &node : _graph.nodes()) {
        switch (classifier.classify(node)) {
          case BranchClass::BiasedTaken:
            spec.static_directions.emplace(node.pc, true);
            break;
          case BranchClass::BiasedNotTaken:
            spec.static_directions.emplace(node.pc, false);
            break;
          case BranchClass::Mixed:
            break;
        }
    }
    return spec;
}

ProfileSession::ProfileSession(AllocationPipeline &pipeline)
    : _pipeline(pipeline)
{
    // The pipeline's collector IS the session's statistics phase;
    // lastStats() keeps exposing it after the session closes.
    _pipeline._stats.clear();
}

void
ProfileSession::addStats(const TraceSource &source)
{
    if (_committed)
        bwsa_fatal("ProfileSession: statistics input after commit()");
    BWSA_SPAN("pipeline.stats_pass");
    source.replay(_pipeline._stats);
}

const FrequencySelection &
ProfileSession::commit()
{
    if (_committed)
        bwsa_fatal("ProfileSession: commit() called twice");
    _committed = true;
    _pipeline._selection =
        selectByFrequency(_pipeline._stats, _pipeline._config.coverage,
                          _pipeline._config.max_static);
    _pipeline._stats_valid = true;
    return _pipeline._selection;
}

ShardRunStats
ProfileSession::addInterleave(const TraceSource &source,
                              unsigned shards, unsigned threads)
{
    if (!_committed)
        bwsa_fatal("ProfileSession: interleave input before commit()");
    if (_finished)
        bwsa_fatal("ProfileSession: interleave input after finish()");
    if (_interleaved)
        bwsa_fatal("ProfileSession: second interleave pass (one "
                   "addInterleave() per session)");
    _interleaved = true;

    BWSA_SPAN("pipeline.interleave_pass");
    ShardConfig config;
    config.shards = shards;
    config.threads = threads;
    config.interleave = _pipeline._config.interleave;
    config.selection = &_pipeline._selection;
    return profileTraceSharded(source, _run_graph, config);
}

void
ProfileSession::finish()
{
    if (!_committed)
        bwsa_fatal("ProfileSession: finish() before commit()");
    if (_finished)
        bwsa_fatal("ProfileSession: finish() called twice");
    _finished = true;

    obs::MetricsRegistry::global().counter("pipeline.profiles").inc();
    if (_pipeline._profiles == 0)
        _pipeline._graph = std::move(_run_graph);
    else
        _pipeline._graph.mergeFrom(_run_graph);
    ++_pipeline._profiles;
    _pipeline.graphChanged();
}

} // namespace bwsa
