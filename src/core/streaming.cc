#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/pipeline.hh"
#include "obs/metrics.hh"
#include "obs/phase_tracer.hh"
#include "util/logging.hh"

namespace bwsa
{

namespace
{

InterleaveConfig
windowConfig(std::size_t max_window)
{
    InterleaveConfig config;
    config.max_window = max_window;
    return config;
}

} // namespace

StreamingProfileSession::StreamingProfileSession(
    StreamingSessionConfig config)
    : _config(std::move(config)),
      _tracker(_graph, windowConfig(_config.max_window))
{
    if (_config.phase_interval != 0) {
        _phase_accum = std::make_unique<obs::PhaseAccumulator>(
            _config.phase_interval);
        _phase_detector = std::make_unique<obs::PhaseDetector>(
            _config.phase_interval, _config.phase_config);
    }
    if (_config.max_resident_bytes != 0) {
        if (!_config.spill_cache)
            bwsa_fatal("bounded streaming sessions need a spill "
                       "cache");
        if (_config.spill_scope.empty())
            bwsa_fatal("bounded streaming sessions need a spill "
                       "scope");
    }
}

StreamingProfileSession::~StreamingProfileSession()
{
    // Abandoned sessions must not leak spilled epochs into the
    // shared cache.
    if (!_finished && _epochs != 0 && _config.spill_cache)
        for (std::uint64_t e = 0; e < _epochs; ++e)
            _config.spill_cache->invalidate(spillKey(e));
}

std::string
StreamingProfileSession::spillKey(std::uint64_t epoch) const
{
    store::CacheKeyBuilder builder;
    builder
        .add("schema", static_cast<std::uint64_t>(
                           store::profile_artifact_schema))
        .add("spill", _config.spill_scope)
        .add("epoch", epoch);
    return builder.key();
}

void
StreamingProfileSession::appendBlock(const BranchRecord *records,
                                     std::size_t count)
{
    if (_finished)
        bwsa_panic("StreamingProfileSession: appendBlock after "
                   "finish()");
    if (count == 0)
        return;

    BWSA_SPAN("stream.append");
    // One warm tracker serves the whole session, so the stream is
    // profiled exactly as a serial pass.  Nothing flushes here: the
    // graph is built when something reads it (snapshot, finish, or a
    // spill), so ingest costs grow with records, not with blocks.
    std::uint64_t last_ts = _last_timestamp;
    for (std::size_t i = 0; i < count; ++i) {
        if (_records + i != 0 && records[i].timestamp <= last_ts)
            bwsa_panic("StreamingProfileSession: timestamps must "
                       "strictly ascend across the session");
        last_ts = records[i].timestamp;
    }
    const std::span<const BranchRecord> block(records, count);
    _stats.onBlock(block);
    _tracker.onBlock(block);
    if (_phase_accum)
        for (const BranchRecord &record : block)
            _phase_accum->sample(record.pc, record.timestamp);
    drainPhaseWindows();
    _last_timestamp = last_ts;
    _records += count;
    ++_blocks;

    auto &registry = obs::MetricsRegistry::global();
    registry.counter("stream.blocks").inc();
    registry.counter("stream.records").inc(count);

    if (_config.max_resident_bytes != 0 && _tracker.pending() &&
        residentBytes() > _config.max_resident_bytes)
        spillEpoch();
}

std::uint64_t
StreamingProfileSession::residentBytes() const
{
    // Rough accounting of the dominant containers; precise to within
    // allocator overhead, which is all the spill threshold needs.
    // _graph is empty outside spillEpoch() and finish(), so the
    // tracker's counter rows and the statistics are all there is.
    return _tracker.residentBytes() + _stats.table().size() * 64;
}

void
StreamingProfileSession::spillEpoch()
{
    BWSA_SPAN("stream.spill");
    // The tracker's counts drain into the staging graph, which is
    // stored and reset; statistics, slots and the window stay
    // resident (all bounded by the static branch population).  The
    // next flush restores every tracker slot in slot order, so the
    // epochs still fold in first-occurrence order.
    _tracker.onEnd();
    store::ProfileArtifact epoch;
    epoch.graph = std::move(_graph);
    store::storeProfileArtifact(*_config.spill_cache,
                                spillKey(_epochs), epoch);
    _graph = ConflictGraph();
    ++_epochs;
    obs::MetricsRegistry::global().counter("stream.spills").inc();
}

ConflictGraph
StreamingProfileSession::spilledGraph() const
{
    // Epoch order is arrival order, so node ids land in global
    // first-occurrence order -- identical to a serial pass.
    ConflictGraph merged;
    for (std::uint64_t e = 0; e < _epochs; ++e) {
        std::optional<store::ProfileArtifact> epoch =
            store::loadProfileArtifact(*_config.spill_cache,
                                       spillKey(e));
        if (!epoch)
            throw std::runtime_error(
                std::string("streaming session '")
                    .append(_config.spill_scope)
                    .append("': spilled epoch ")
                    .append(std::to_string(e))
                    .append(" was evicted from the artifact cache; "
                            "raise the cache cap or the resident "
                            "bound"));
        if (e == 0)
            merged = std::move(epoch->graph);
        else
            merged.mergeFrom(epoch->graph);
    }
    return merged;
}

store::ProfileArtifact
StreamingProfileSession::profile(ConflictGraph spilled,
                                 ConflictGraph live) const
{
    store::ProfileArtifact artifact;
    artifact.stats = _stats;
    artifact.selection = selectByFrequency(_stats, 1.0, 0);
    if (_epochs == 0) {
        artifact.graph = std::move(live);
    } else {
        spilled.mergeFrom(live);
        artifact.graph = std::move(spilled);
    }
    return artifact;
}

store::ProfileArtifact
StreamingProfileSession::snapshot()
{
    BWSA_SPAN("stream.snapshot");
    obs::MetricsRegistry::global().counter("stream.snapshots").inc();
    ConflictGraph spilled = spilledGraph();
    return profile(std::move(spilled), _tracker.pendingGraph());
}

void
StreamingProfileSession::drainPhaseWindows()
{
    if (!_phase_accum)
        return;
    // The timeline over any block partitioning is the serial one; the
    // phases the drain opened are the last `opened` of phases().
    const std::size_t opened = _phase_detector->observeNew(*_phase_accum);
    const std::vector<obs::Phase> &phases = _phase_detector->phases();
    for (std::size_t k = phases.size() - opened; k < phases.size(); ++k) {
        StreamingPhaseEvent event;
        event.index = k;
        event.start_ts = phases[k].start_ts;
        event.prev_start_ts = phases[k - 1].start_ts;
        event.similarity = phases[k].boundary_similarity;
        _phase_events.push_back(event);
    }
}

std::vector<StreamingPhaseEvent>
StreamingProfileSession::takePhaseEvents()
{
    std::vector<StreamingPhaseEvent> out;
    out.swap(_phase_events);
    return out;
}

obs::PhaseTimeline
StreamingProfileSession::phaseTimeline() const
{
    if (!_phase_detector)
        bwsa_fatal("phaseTimeline() on a session configured without "
                   "phase detection");
    return _phase_detector->timeline();
}

store::ProfileArtifact
StreamingProfileSession::finish()
{
    if (_finished)
        bwsa_panic("StreamingProfileSession: finish() called twice");
    // Fold the spilled epochs first: if an evicted one makes it
    // throw, the session is left untouched.  Then the one destructive
    // flush of the session's tail.
    ConflictGraph spilled = spilledGraph();
    _tracker.onEnd();
    store::ProfileArtifact artifact =
        profile(std::move(spilled), std::move(_graph));
    if (_phase_accum) {
        // Flush the tail partial window so the trace's final phase is
        // visible in the timeline and its boundary (if any) is
        // delivered as a last event.
        _phase_accum->finish();
        drainPhaseWindows();
    }
    _finished = true;
    if (_config.spill_cache)
        for (std::uint64_t e = 0; e < _epochs; ++e)
            _config.spill_cache->invalidate(spillKey(e));
    _graph = ConflictGraph();
    return artifact;
}

} // namespace bwsa
