#include "profile/shard.hh"

#include <algorithm>
#include <chrono>
#include <memory>

#include "exec/thread_pool.hh"
#include "obs/branch_telemetry.hh"
#include "obs/metrics.hh"
#include "obs/phase_detect.hh"
#include "obs/phase_tracer.hh"
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


/**
 * Replay @p segment into @p sink, through the optional filter.
 *
 * @return records the filter dropped (0 without a selection)
 */
std::uint64_t
replayFiltered(const TraceSource &segment,
               const FrequencySelection *selection, TraceSink &sink)
{
    if (!selection) {
        segment.replay(sink);
        return 0;
    }
    FilteredSink filter(*selection, sink);
    segment.replay(filter);
    return filter.dropped();
}

/**
 * Pass-through sink that holds back the end of stream: the shard
 * tracker flushes only after its boundary stitch has added the
 * carried-over increments.
 */
class ShardProgressSink : public TraceSink
{
  public:
    explicit ShardProgressSink(TraceSink &inner) : _inner(inner) {}

    /** One-record block. */
    void
    onBranch(const BranchRecord &record) override
    {
        ShardProgressSink::onBlock({&record, 1});
    }

    void
    onBlock(std::span<const BranchRecord> records) override
    {
        _inner.onBlock(records);
    }

    void onEnd() override {}

    bool done() const override { return _inner.done(); }

  private:
    TraceSink &_inner;
};

/** State of one shard between the passes. */
struct ShardResult
{
    std::unique_ptr<InterleaveTracker> tracker; ///< until drained
    std::vector<NodeId> ids; ///< tracker slot -> merged node id
};


/**
 * The shard runs merged across @p pool: the key space is cut at
 * quantiles of the largest run into one range per worker, each range
 * merges on its own (ConflictGraph::mergeRuns), and the ranges
 * concatenate in order.  Empties @p runs.
 */
std::vector<ConflictGraph::Edge>
mergeRunsByRange(std::vector<std::vector<ConflictGraph::Edge>> &runs,
                 exec::ThreadPool &pool, unsigned parts)
{
    using Edge = ConflictGraph::Edge;
    const std::vector<Edge> &largest = *std::max_element(
        runs.begin(), runs.end(),
        [](const auto &x, const auto &y) { return x.size() < y.size(); });
    // Range j holds keys in [cuts[j], cuts[j + 1]); no real key is
    // all-ones.
    if (largest.empty())
        parts = 1;
    std::vector<std::uint64_t> cuts{0};
    for (unsigned j = 1; j < parts; ++j)
        cuts.push_back(largest[largest.size() * j / parts].first);
    cuts.push_back(~std::uint64_t(0));

    std::vector<std::vector<Edge>> ranges(parts);
    for (unsigned j = 0; j < parts; ++j) {
        pool.submit([&, j](unsigned) {
            auto below = [](const Edge &edge, std::uint64_t key) {
                return edge.first < key;
            };
            std::vector<std::span<const Edge>> slices;
            for (const std::vector<Edge> &run : runs) {
                auto lo = std::lower_bound(run.begin(), run.end(),
                                           cuts[j], below);
                auto hi = std::lower_bound(lo, run.end(), cuts[j + 1],
                                           below);
                slices.emplace_back(lo, hi);
            }
            ranges[j] = ConflictGraph::mergeRuns(slices);
        });
    }
    pool.wait();
    runs.clear();

    std::size_t total = 0;
    for (const std::vector<Edge> &range : ranges)
        total += range.size();
    std::vector<Edge> merged;
    merged.reserve(total);
    for (std::vector<Edge> &range : ranges) {
        merged.insert(merged.end(), range.begin(), range.end());
        range = std::vector<Edge>();
    }
    return merged;
}

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
    const std::uint64_t dropped =
        replayFiltered(source, config.selection, tracker);

    ShardTiming timing;
    timing.index = 0;
    timing.worker = 0;
    // The tracker flushed every record it kept into the empty graph
    // and the filter counted the rest: the raw count, with no second
    // pass over the source.
    timing.records = graph.totalExecutions() + dropped;
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

    std::vector<TraceSegment> segments = source.segments(config.shards);
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

    // --- Parallel pass: one cold tracker per segment, all over the
    // merged graph but none flushed yet (a tracker touches its graph
    // only when it flushes).  Per-branch telemetry gets one cold
    // local map per segment too (same order as the caller's map),
    // folded back in segment order after the pass -- mergeAppend
    // repairs the boundary-crossing transitions and entropy
    // contexts, so the folded map is bit-identical to a serial run's.
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

            InterleaveConfig shard_config = config.interleave;
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
            results[i].tracker = std::make_unique<InterleaveTracker>(
                graph, shard_config);
            ShardProgressSink sink(*results[i].tracker);
            replayFiltered(segments[i], config.selection, sink);

            ShardTiming &timing = stats.timings[i];
            timing.index = i;
            timing.worker = worker;
            timing.records = segments[i].recordCount();
            timing.increments = results[i].tracker->pairIncrements();
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

    // --- Boundary window states, composed from the shard trackers
    // (no serial scan of the trace is needed).  boundaries[k] is the
    // serial window state at the start of segment k+1.
    std::vector<std::vector<BranchPc>> boundaries(count - 1);
    for (std::size_t k = 0; k + 1 < count; ++k)
        boundaries[k] = composeBoundary(
            k == 0 ? std::vector<BranchPc>{} : boundaries[k - 1],
            *results[k].tracker);

    // --- Stitch: the increments each boundary owes go straight into
    // the next segment's counter rows, so its flush emits them with
    // its own.
    std::vector<std::uint64_t> stitch_increments(count, 0);
    std::vector<double> stitch_millis(count, 0.0);
    for (std::size_t i = 1; i < count; ++i) {
        if (boundaries[i - 1].empty())
            continue;
        pool.submit([&, i](unsigned worker) {
            obs::PhaseTracer::Span span("profile.stitch");
            span.setWorker(worker);
            Clock::time_point start = Clock::now();
            stitch_increments[i] =
                stitchBoundary(boundaries[i - 1], *results[i].tracker);
            stitch_millis[i] = millisSince(start);
        });
    }
    pool.wait();

    // --- Flush and merge.  Node counts flush serially in segment
    // order, so node ids land in global first-occurrence order,
    // identical to a serial pass (a stitch's zero-count slots are
    // branches of earlier segments and keep their ids).  Every shard
    // then drains its rows into one run sorted by merged edge key, in
    // parallel, and a k-way linear merge, split by key range across
    // the pool, folds the runs.
    Clock::time_point merge_start = Clock::now();
    for (std::size_t i = 0; i < count; ++i)
        results[i].ids = results[i].tracker->flushNodes();
    double merge_millis = millisSince(merge_start);
    std::vector<std::vector<ConflictGraph::Edge>> runs(count);
    for (std::size_t i = 0; i < count; ++i) {
        pool.submit([&, i](unsigned worker) {
            obs::PhaseTracer::Span span("profile.shard_flush");
            span.setWorker(worker);
            Clock::time_point start = Clock::now();
            runs[i] = results[i].tracker->drainEdges(results[i].ids);
            results[i].tracker.reset();
            stats.timings[i].millis += millisSince(start);
        });
    }
    pool.wait();
    {
        obs::PhaseTracer::Span span("profile.shard_merge");
        Clock::time_point start = Clock::now();
        std::vector<std::vector<ConflictGraph::Edge>> merged;
        merged.push_back(mergeRunsByRange(runs, pool, threads));
        graph.mergeEdges(std::move(merged));
        stats.merge_millis = merge_millis + millisSince(start);
    }

    for (std::size_t i = 1; i < count; ++i) {
        if (boundaries[i - 1].empty())
            continue;
        ++stats.stitch.boundaries;
        stats.stitch.pair_increments += stitch_increments[i];
        stats.stitch.millis += stitch_millis[i];
    }

    auto &registry = obs::MetricsRegistry::global();
    registry.counter("profile.sharded_runs").inc();
    registry.counter("profile.shard_passes").inc(count);
    registry.counter("profile.stitch_increments")
        .inc(stats.stitch.pair_increments);

    stats.total_millis = millisSince(run_start);
    return stats;
}

ConflictGraph
profileTrace(const TraceSource &source, const ShardConfig &config)
{
    ConflictGraph graph;
    profileTraceSharded(source, graph, config);
    return graph;
}

} // namespace bwsa
