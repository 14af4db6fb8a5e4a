#include "profile/shard.hh"

#include <chrono>
#include <memory>
#include <unordered_map>

#include "exec/thread_pool.hh"
#include "obs/branch_telemetry.hh"
#include "obs/metrics.hh"
#include "obs/phase_detect.hh"
#include "obs/phase_tracer.hh"
#include "obs/timeseries.hh"
#include "profile/stitch.hh"
#include "util/logging.hh"

namespace bwsa
{

namespace
{

using Clock = std::chrono::steady_clock;

double
millisSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     start)
        .count();
}


/** Replay @p segment into @p sink, through the optional filter. */
void
replayFiltered(const TraceSource &segment,
               const FrequencySelection *selection, TraceSink &sink)
{
    if (selection) {
        FilteredSink filter(*selection, sink);
        segment.replay(filter);
    } else {
        segment.replay(sink);
    }
}

/**
 * Pass-through sink publishing shard progress: one unit sample per
 * record at its trace timestamp, so the series' window *weights* show
 * how many records each instruction window contributed to this shard
 * (a throughput-over-trace-position signal per worker).
 */
class ShardProgressSink : public TraceSink
{
  public:
    ShardProgressSink(TraceSink &inner, obs::TimeSeries *series)
        : _inner(inner), _series(series)
    {
    }

    void
    onBranch(const BranchRecord &record) override
    {
        if (_series)
            _series->record(record.timestamp, 1.0);
        _inner.onBranch(record);
    }

    void onEnd() override { _inner.onEnd(); }

    bool done() const override { return _inner.done(); }

  private:
    TraceSink &_inner;
    obs::TimeSeries *_series;
};

/** Result of one shard of the parallel pass. */
struct ShardResult
{
    ConflictGraph graph;
    std::vector<BranchPc> window;
};


/** Plain serial profile, reported as a one-shard run. */
ShardRunStats
profileSerial(const TraceSource &source, ConflictGraph &graph,
              const ShardConfig &config)
{
    ShardRunStats stats;
    stats.shards = 1;
    stats.threads = 1;
    Clock::time_point start = Clock::now();
    InterleaveTracker tracker(graph, config.interleave);
    replayFiltered(source, config.selection, tracker);

    ShardTiming timing;
    timing.index = 0;
    timing.worker = 0;
    timing.records = config.record_count;
    timing.increments = tracker.pairIncrements();
    timing.millis = millisSince(start);
    stats.timings.push_back(timing);
    stats.total_millis = timing.millis;
    return stats;
}

} // namespace

ShardRunStats
profileTraceSharded(const TraceSource &source, ConflictGraph &graph,
                    const ShardConfig &config)
{
    if (graph.nodeCount() != 0)
        bwsa_panic("profileTraceSharded requires an empty graph");
    if (config.shards <= 1)
        return profileSerial(source, graph, config);

    Clock::time_point run_start = Clock::now();
    BWSA_SPAN("profile.sharded");

    std::vector<TraceSegment> segments =
        source.segments(config.shards, config.record_count);
    std::size_t count = segments.size();
    if (count <= 1)
        return profileSerial(source, graph, config);

    ShardRunStats stats;
    stats.shards = static_cast<unsigned>(count);
    unsigned threads = config.threads != 0
                           ? config.threads
                           : exec::ThreadPool::hardwareThreads();
    if (threads > count)
        threads = static_cast<unsigned>(count);
    if (threads == 0)
        threads = 1;
    stats.threads = threads;

    exec::ThreadPool pool(threads);

    // --- Parallel pass: one cold tracker per segment.  Per-branch
    // telemetry gets one cold local map per segment too (same order
    // as the caller's map), folded back in segment order after the
    // pass -- mergeAppend repairs the boundary-crossing transitions
    // and entropy contexts, so the folded map is bit-identical to a
    // serial run's.  The stitch passes below replay boundary regions
    // a second time and therefore must not feed telemetry.
    obs::BranchTelemetryMap *telemetry = config.interleave.telemetry;
    std::vector<std::unique_ptr<obs::BranchTelemetryMap>> shard_maps(
        telemetry ? count : 0);
    // The phase accumulator folds exactly like the telemetry map: a
    // cold accumulator per segment, appended in segment order (each
    // fold repairs the one window a segment boundary may have split).
    obs::PhaseAccumulator *phase = config.interleave.phase;
    std::vector<std::unique_ptr<obs::PhaseAccumulator>> shard_phases(
        phase ? count : 0);
    std::vector<ShardResult> results(count);
    stats.timings.resize(count);
    for (std::size_t i = 0; i < count; ++i) {
        pool.submit([&, i](unsigned worker) {
            obs::PhaseTracer::Span span("profile.shard");
            span.setWorker(worker);
            span.addWork(segments[i].recordCount());
            Clock::time_point start = Clock::now();

            // Scope this shard's progress series under its index:
            // each shard writes only its own series (single-writer
            // contract).
            InterleaveConfig shard_config = config.interleave;
            obs::TimeSeries *progress = nullptr;
            if (!shard_config.series_scope.empty())
                progress = obs::TimeSeriesRegistry::global().series(
                    shard_config.series_scope + "/shard" +
                    std::to_string(i) + "/progress");
            if (telemetry) {
                shard_maps[i] =
                    std::make_unique<obs::BranchTelemetryMap>(
                        telemetry->order());
                shard_config.telemetry = shard_maps[i].get();
            }
            if (phase) {
                shard_phases[i] =
                    std::make_unique<obs::PhaseAccumulator>(
                        phase->interval());
                shard_config.phase = shard_phases[i].get();
            }
            InterleaveTracker tracker(results[i].graph, shard_config);
            ShardProgressSink sink(tracker, progress);
            replayFiltered(segments[i], config.selection, sink);
            results[i].window = tracker.windowPcs();

            ShardTiming &timing = stats.timings[i];
            timing.index = i;
            timing.worker = worker;
            timing.records = segments[i].recordCount();
            timing.increments = tracker.pairIncrements();
            timing.millis = millisSince(start);
        });
    }
    pool.wait();

    // --- Fold the per-segment telemetry maps, in segment order (the
    // merge algebra is ordered: each fold repairs one boundary).
    if (telemetry)
        for (std::size_t i = 0; i < count; ++i)
            telemetry->mergeAppend(*shard_maps[i]);
    if (phase)
        for (std::size_t i = 0; i < count; ++i)
            phase->mergeAppend(*shard_phases[i]);

    // --- Boundary window states, composed from per-shard summaries
    // (no serial scan of the trace is needed).  boundaries[k] is the
    // serial window state at the start of segment k+1.  Must run
    // before the merge below moves the per-shard graphs.
    std::size_t max_window = config.interleave.max_window;
    std::vector<std::vector<BranchPc>> boundaries(count - 1);
    for (std::size_t k = 0; k + 1 < count; ++k)
        boundaries[k] = composeBoundary(
            k == 0 ? std::vector<BranchPc>{} : boundaries[k - 1],
            results[k].graph, results[k].window, max_window);

    // --- Merge and stitch, concurrently.  The stitch sinks buffer
    // pc-pair deltas instead of touching the merged graph, so the
    // K-1 boundary scans and the merge fold are independent: one
    // worker folds the per-shard graphs (in segment order, so node
    // ids land in global first-occurrence order, identical to a
    // serial pass) while the others scan boundary regions.
    std::vector<std::unique_ptr<StitchSink>> stitches(count - 1);
    std::vector<double> stitch_millis(count - 1, 0.0);
    pool.submit([&](unsigned worker) {
        obs::PhaseTracer::Span span("profile.shard_merge");
        span.setWorker(worker);
        Clock::time_point start = Clock::now();
        graph = std::move(results[0].graph);
        for (std::size_t i = 1; i < count; ++i)
            graph.mergeFrom(results[i].graph);
        stats.merge_millis = millisSince(start);
    });
    for (std::size_t k = 0; k + 1 < count; ++k) {
        if (boundaries[k].empty())
            continue;
        pool.submit([&, k](unsigned worker) {
            obs::PhaseTracer::Span span("profile.stitch");
            span.setWorker(worker);
            Clock::time_point start = Clock::now();
            auto stitch = std::make_unique<StitchSink>(boundaries[k],
                                                       max_window);
            replayFiltered(segments[k + 1], config.selection,
                           *stitch);
            span.addWork(stitch->recordsScanned());
            stitch_millis[k] = millisSince(start);
            stitches[k] = std::move(stitch);
        });
    }
    pool.wait();

    // --- Fold the buffered boundary increments in (cheap: the
    // deltas are small compared to the scans that produced them).
    for (std::size_t k = 0; k + 1 < count; ++k) {
        if (!stitches[k])
            continue;
        stitches[k]->applyTo(graph);
        ++stats.stitch.boundaries;
        stats.stitch.records_scanned += stitches[k]->recordsScanned();
        stats.stitch.pair_increments += stitches[k]->increments();
        stats.stitch.millis += stitch_millis[k];
    }

    auto &registry = obs::MetricsRegistry::global();
    registry.counter("profile.sharded_runs").inc();
    registry.counter("profile.shard_passes").inc(count);
    registry.counter("profile.stitch_records")
        .inc(stats.stitch.records_scanned);
    registry.counter("profile.stitch_increments")
        .inc(stats.stitch.pair_increments);

    stats.total_millis = millisSince(run_start);
    return stats;
}

ConflictGraph
profileTraceShardedGraph(const TraceSource &source,
                         const ShardConfig &config)
{
    ConflictGraph graph;
    profileTraceSharded(source, graph, config);
    return graph;
}

} // namespace bwsa
