/**
 * @file
 * google-benchmark microbenchmarks of the library's performance-
 * critical components: synthetic execution, interleave tracking,
 * predictor step rates, graph pruning, coloring, and working-set
 * extraction.  These quantify the analysis costs the infrastructure
 * papers of the era cared about (profile-based tools must keep
 * analysis time proportional to trace length).
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <filesystem>

#include "bench_common.hh"
#include "core/allocation.hh"
#include "core/pipeline.hh"
#include "core/working_set.hh"
#include "obs/branch_telemetry.hh"
#include "store/artifact_cache.hh"
#include "store/block_trace.hh"
#include "store/profile_artifact.hh"
#include "predict/factory.hh"
#include "profile/interleave.hh"
#include "profile/shard.hh"
#include "sim/batched_replay.hh"
#include "trace/trace.hh"
#include "trace/trace_stats.hh"
#include "util/strutil.hh"
#include "workload/presets.hh"

using namespace bwsa;

namespace
{

/** Cached small workload trace shared across benchmarks. */
const MemoryTrace &
cachedTrace()
{
    static const MemoryTrace trace = [] {
        Workload w = makeWorkload("m88ksim", "", 0.1);
        MemoryTrace t;
        w.source().replay(t);
        return t;
    }();
    return trace;
}

/** Cached conflict graph of the same workload. */
const ConflictGraph &
cachedGraph()
{
    static const ConflictGraph graph = profileTrace(cachedTrace());
    return graph;
}

void
BM_SyntheticExecution(benchmark::State &state)
{
    Workload w = makeWorkload("compress", "", 0.2);
    std::uint64_t instructions = 0;
    for (auto _ : state) {
        TraceStatsCollector sink;
        SyntheticExecutor exec(w.program, w.config);
        ExecutionResult r = exec.run(sink);
        instructions += r.instructions;
        benchmark::DoNotOptimize(r.dynamic_branches);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(instructions));
}

void
BM_InterleaveTracking(benchmark::State &state)
{
    const MemoryTrace &trace = cachedTrace();
    for (auto _ : state) {
        ConflictGraph graph;
        InterleaveTracker tracker(graph);
        trace.replay(tracker);
        benchmark::DoNotOptimize(graph.edgeCount());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(trace.size()));
}

/** One single-lane batched replay of the cached trace per iteration. */
void
BM_PredictorStep(benchmark::State &state, PredictorSpec spec)
{
    const MemoryTrace &trace = cachedTrace();
    for (auto _ : state) {
        std::vector<PredictionStats> stats = replayBatched(trace, {spec});
        benchmark::DoNotOptimize(stats[0].mispredicts.events());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(trace.size()));
}

/** The fig3-shaped contender set the replay-engine benchmarks step. */
std::vector<PredictorSpec>
replayContenders()
{
    return {paperBaselineSpec(), parsePredictorSpec("pag:bht=16"),
            parsePredictorSpec("pag:bht=128"), interferenceFreeSpec(),
            parsePredictorSpec("gshare")};
}

/**
 * The batched replay engine over the whole contender set: one trace
 * decode, all predictors stepped through packed lanes.  Items
 * processed count records x predictors, so the items/s rate compares
 * directly with the single-lane BM_PredictorStep rows.
 */
void
BM_BatchedReplay(benchmark::State &state)
{
    const MemoryTrace &trace = cachedTrace();
    const std::vector<PredictorSpec> specs = replayContenders();
    for (auto _ : state) {
        std::vector<PredictionStats> stats =
            replayBatched(trace, specs);
        benchmark::DoNotOptimize(stats[0].mispredicts.events());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(trace.size() * specs.size()));
}

/**
 * The interference probe's replay cost, against the BM_PredictorStep
 * pag_modulo baseline: probe_off must sit within noise of pag_modulo
 * (a disabled probe is one null-pointer test per step), probe_on
 * quantifies the opt-in shadow-history cost.
 */
void
BM_PredictorStepProbe(benchmark::State &state, bool enable_probe)
{
    const MemoryTrace &trace = cachedTrace();
    BatchedLaneOptions options;
    options.probe = enable_probe;
    for (auto _ : state) {
        BatchedReplayer replayer;
        replayer.addLane(paperBaselineSpec(), options);
        replayer.replay(trace);
        benchmark::DoNotOptimize(replayer.stats(0).mispredicts.events());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(trace.size()));
}

/**
 * Per-branch telemetry's profiling-replay cost, against the
 * BM_InterleaveTracking baseline: telemetry_off must sit within noise
 * of BM_InterleaveTracking (a disabled map is one null-pointer test
 * per branch), telemetry_on quantifies the opt-in per-branch
 * accumulation.
 */
void
BM_InterleaveTrackingTelemetry(benchmark::State &state,
                               bool enable_telemetry)
{
    const MemoryTrace &trace = cachedTrace();
    for (auto _ : state) {
        ConflictGraph graph;
        obs::BranchTelemetryMap telemetry;
        InterleaveConfig config;
        if (enable_telemetry)
            config.telemetry = &telemetry;
        InterleaveTracker tracker(graph, config);
        trace.replay(tracker);
        benchmark::DoNotOptimize(graph.edgeCount());
        benchmark::DoNotOptimize(telemetry.size());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(trace.size()));
}

void
BM_InterleaveTrackingSharded(benchmark::State &state)
{
    const MemoryTrace &trace = cachedTrace();
    ShardConfig config;
    config.shards = static_cast<unsigned>(state.range(0));
    config.threads = config.shards;
    for (auto _ : state) {
        ConflictGraph graph = profileTraceShardedGraph(trace, config);
        benchmark::DoNotOptimize(graph.edgeCount());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(trace.size()));
}

void
BM_GraphPrune(benchmark::State &state)
{
    const ConflictGraph &graph = cachedGraph();
    for (auto _ : state) {
        ConflictGraph pruned =
            graph.pruned(static_cast<std::uint64_t>(state.range(0)));
        benchmark::DoNotOptimize(pruned.edgeCount());
    }
}

void
BM_Allocation(benchmark::State &state)
{
    const ConflictGraph &graph = cachedGraph();
    AllocationConfig config;
    for (auto _ : state) {
        AllocationResult result = allocateBranches(
            graph, static_cast<std::uint64_t>(state.range(0)),
            config);
        benchmark::DoNotOptimize(result.residual_conflict);
    }
}

void
BM_WorkingSets(benchmark::State &state, WorkingSetDefinition def)
{
    static const ConflictGraph pruned = cachedGraph().pruned(100);
    for (auto _ : state) {
        WorkingSetResult result = findWorkingSets(pruned, def);
        benchmark::DoNotOptimize(result.sets.size());
    }
}

/**
 * The headline profiling-throughput measurement: serial interleave
 * profiling vs. 4 shards on 4 workers over a large trace (>= 8M
 * instructions), emitted as its own result table (and into the JSON
 * run report) with the speedup and a graph-equality check.
 */
void
emitProfilingThroughput(const bench::BenchOptions &options)
{
    constexpr std::uint64_t min_instructions = 8'000'000;

    // Grow the workload until the trace spans >= 8M instructions (the
    // timestamp is the retired-instruction count).
    MemoryTrace trace;
    for (double scale = 1.0; scale <= 512.0; scale *= 2.0) {
        trace.clear();
        Workload w = makeWorkload("m88ksim", "", scale);
        w.source().replay(trace);
        if (!trace.empty() &&
            trace[trace.size() - 1].timestamp >= min_instructions)
            break;
    }
    std::uint64_t instructions =
        trace.empty() ? 0 : trace[trace.size() - 1].timestamp;

    ShardConfig serial_config;
    serial_config.record_count = trace.recordCount();
    ConflictGraph serial_graph;
    ShardRunStats serial =
        profileTraceSharded(trace, serial_graph, serial_config);

    ShardConfig sharded_config;
    sharded_config.shards = 4;
    sharded_config.threads = 4;
    sharded_config.record_count = trace.recordCount();
    ConflictGraph sharded_graph;
    ShardRunStats sharded =
        profileTraceSharded(trace, sharded_graph, sharded_config);
    bench::recordShardStats("throughput_m88ksim", sharded);

    bool equal = serial_graph.nodeCount() ==
                     sharded_graph.nodeCount() &&
                 serial_graph.edges() == sharded_graph.edges();
    for (std::size_t i = 0;
         equal && i < serial_graph.nodeCount(); ++i) {
        const ConflictNode &a =
            serial_graph.node(static_cast<NodeId>(i));
        const ConflictNode &b =
            sharded_graph.node(static_cast<NodeId>(i));
        equal = a.pc == b.pc && a.executed == b.executed &&
                a.taken == b.taken;
    }

    auto rate = [&](double ms) {
        return ms > 0.0
                   ? static_cast<double>(trace.size()) / ms / 1000.0
                   : 0.0;
    };
    double speedup = sharded.total_millis > 0.0
                         ? serial.total_millis / sharded.total_millis
                         : 0.0;

    TextTable table({"config", "instructions", "records", "ms",
                     "Mrec/s", "speedup", "merge ms", "stitch ms",
                     "stitch increments", "graph identical"});
    table.addRow({"serial", withCommas(instructions),
                  withCommas(trace.size()),
                  fixedString(serial.total_millis, 3),
                  fixedString(rate(serial.total_millis), 2), "1.00",
                  "-", "-", "-", "-"});
    table.addRow({"4 shards / 4 threads", withCommas(instructions),
                  withCommas(trace.size()),
                  fixedString(sharded.total_millis, 3),
                  fixedString(rate(sharded.total_millis), 2),
                  fixedString(speedup, 2),
                  fixedString(sharded.merge_millis, 3),
                  fixedString(sharded.stitch.millis, 3),
                  withCommas(sharded.stitch.pair_increments),
                  equal ? "yes" : "NO"});
    bench::emitTable("profiling throughput (sharded vs serial)",
                     table, options);
}

/** Milliseconds spent in @p fn (one shot; these are I/O-bound). */
template <typename Fn>
double
timedMillis(Fn &&fn)
{
    auto start = std::chrono::steady_clock::now();
    fn();
    auto elapsed = std::chrono::steady_clock::now() - start;
    return std::chrono::duration<double, std::milli>(elapsed).count();
}

/**
 * Persistence-layer throughput: v2 block container write/read rates
 * (auto and forced-stream reads), the cold-profile vs.
 * cached-artifact cost, and the end-to-end effect of the artifact
 * cache on a table3-style required-size sweep (profile once, every
 * further table-size evaluation hits the cache).
 */
void
emitStoreThroughput(const bench::BenchOptions &options)
{
    namespace fs = std::filesystem;
    const MemoryTrace &trace = cachedTrace();
    const double records = static_cast<double>(trace.size());
    auto rate = [&](double ms) {
        return ms > 0.0 ? records / ms / 1000.0 : 0.0;
    };
    auto row = [&](TextTable &table, const std::string &what,
                   double ms) {
        table.addRow({what, withCommas(trace.size()),
                      fixedString(ms, 3), fixedString(rate(ms), 2)});
    };

    fs::path base = fs::temp_directory_path() / "bwsa_bench_store";
    fs::remove_all(base);
    fs::create_directories(base);
    std::string v2_path = (base / "trace_v2.trace").string();

    TextTable io({"operation", "records", "ms", "Mrec/s"});
    row(io, "v2 write", timedMillis([&] {
            store::writeBlockTraceFile(v2_path, trace);
        }));
    {
        store::BlockTraceReader reader(v2_path);
        row(io,
            reader.usingMmap() ? "v2 read (auto: mmap)"
                               : "v2 read (auto: stream)",
            timedMillis([&] {
                TraceStatsCollector sink;
                reader.replay(sink);
                benchmark::DoNotOptimize(sink.dynamicBranches());
            }));
    }
    {
        store::BlockTraceReader reader(v2_path,
                                       store::ReadMode::Stream);
        row(io, "v2 read (stream)", timedMillis([&] {
                TraceStatsCollector sink;
                reader.replay(sink);
                benchmark::DoNotOptimize(sink.dynamicBranches());
            }));
    }
    bench::emitTable("trace store throughput (v2 block container)", io,
                     options);

    // Cold profile vs. cached artifact: the second table3-style run's
    // per-trace cost collapses to a cache load + graph import.
    store::ArtifactCache cache((base / "cache").string());
    std::string key = store::CacheKeyBuilder()
                          .add("bench", "micro_store")
                          .add("records", trace.recordCount())
                          .key();

    AllocationPipeline cold;
    double cold_ms = timedMillis([&] {
        ProfileSession session(cold);
        session.addStats(trace);
        session.commit();
        session.addInterleave(trace);
        session.finish();
    });
    double store_ms = timedMillis([&] {
        store::storeProfileArtifact(
            cache, key,
            store::ProfileArtifact{cold.lastStats(),
                                   cold.lastSelection(),
                                   cold.graph()});
    });

    AllocationPipeline warm;
    double hit_ms = timedMillis([&] {
        std::optional<store::ProfileArtifact> artifact =
            store::loadProfileArtifact(cache, key);
        if (artifact)
            warm.importProfile(artifact->stats, artifact->selection,
                               artifact->graph);
    });
    bool equal = warm.profileCount() == 1 &&
                 warm.graph().edges() == cold.graph().edges();

    // End-to-end: a small required-size sweep (the table3 inner
    // loop), profiled cold vs. entirely from the cached artifact.
    double sweep_cold_ms = timedMillis([&] {
        AllocationPipeline pipeline;
        ProfileSession session(pipeline);
        session.addStats(trace);
        session.commit();
        session.addInterleave(trace);
        session.finish();
        benchmark::DoNotOptimize(pipeline.requiredSize(1024));
    });
    double sweep_hit_ms = timedMillis([&] {
        AllocationPipeline pipeline;
        std::optional<store::ProfileArtifact> artifact =
            store::loadProfileArtifact(cache, key);
        if (artifact)
            pipeline.importProfile(artifact->stats,
                                   artifact->selection,
                                   artifact->graph);
        benchmark::DoNotOptimize(pipeline.requiredSize(1024));
    });

    TextTable profile({"path", "ms", "vs cold", "graph identical"});
    auto speedup = [&](double ms) {
        return ms > 0.0 ? fixedString(cold_ms / ms, 2) + "x"
                        : std::string("-");
    };
    profile.addRow(
        {"cold profile", fixedString(cold_ms, 3), "1.00x", "-"});
    profile.addRow({"artifact store", fixedString(store_ms, 3),
                    speedup(store_ms), "-"});
    profile.addRow({"artifact load + import", fixedString(hit_ms, 3),
                    speedup(hit_ms), equal ? "yes" : "NO"});
    profile.addRow({"table3-small sweep, cold",
                    fixedString(sweep_cold_ms, 3), "-", "-"});
    profile.addRow({"table3-small sweep, cache hit",
                    fixedString(sweep_hit_ms, 3),
                    sweep_hit_ms > 0.0
                        ? fixedString(sweep_cold_ms / sweep_hit_ms, 2)
                              + "x"
                        : "-",
                    "-"});
    bench::emitTable("profile artifact cache (cold vs cached)",
                     profile, options);

    fs::remove_all(base);
}

/**
 * The headline batched-replay measurement: the fig3-shaped contender
 * set replayed as N single-lane passes (N decodes) and as one N-lane
 * pass (1 decode), with per-lane misprediction identity checked
 * between the two.  The speedup is what the trajectory file (BENCH_7)
 * tracks.
 */
void
emitBatchedReplay(const bench::BenchOptions &options)
{
    const MemoryTrace &trace = cachedTrace();
    const std::vector<PredictorSpec> specs = replayContenders();

    std::vector<PredictionStats> serial_stats;
    double serial_ms = timedMillis([&] {
        for (const PredictorSpec &spec : specs)
            serial_stats.push_back(replayBatched(trace, {spec})[0]);
    });

    std::vector<PredictionStats> batched_stats;
    double batched_ms = timedMillis(
        [&] { batched_stats = replayBatched(trace, specs); });

    bool identical = true;
    for (std::size_t i = 0; i < specs.size(); ++i)
        identical = identical &&
                    batched_stats[i].mispredicts.events() ==
                        serial_stats[i].mispredicts.events() &&
                    batched_stats[i].mispredicts.total() ==
                        serial_stats[i].mispredicts.total();

    TextTable table({"predictors", "records", "serial ms",
                     "batched ms", "vs serial", "identical"});
    table.addRow({std::to_string(specs.size()),
                  withCommas(trace.size()), fixedString(serial_ms, 3),
                  fixedString(batched_ms, 3),
                  batched_ms > 0.0
                      ? fixedString(serial_ms / batched_ms, 2) + "x"
                      : std::string("-"),
                  identical ? "yes" : "NO"});
    bench::emitTable("batched replay (one decode, N predictors)",
                     table, options);
}

} // namespace

BENCHMARK(BM_SyntheticExecution)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_InterleaveTracking)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_InterleaveTrackingTelemetry, telemetry_off,
                  false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_InterleaveTrackingTelemetry, telemetry_on, true)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_InterleaveTrackingSharded)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_PredictorStep, pag_modulo, paperBaselineSpec())
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_PredictorStep, pag_ideal, interferenceFreeSpec())
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BatchedReplay)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_PredictorStepProbe, probe_off, false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_PredictorStepProbe, probe_on, true)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_PredictorStep, gshare, [] {
    PredictorSpec spec;
    spec.kind = PredictorKind::Gshare;
    return spec;
}())
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GraphPrune)->Arg(100)->Arg(1000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Allocation)->Arg(128)->Arg(1024)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_WorkingSets, seeded_clique,
                  WorkingSetDefinition::SeededClique)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_WorkingSets, greedy_partition,
                  WorkingSetDefinition::GreedyPartition)
    ->Unit(benchmark::kMillisecond);

// Expanded BENCHMARK_MAIN() so the BWSA observability flags (--json,
// --trace, --progress, --quiet/--verbose) work here too; unknown
// flags are left for google-benchmark to consume.
int
main(int argc, char **argv)
{
    bwsa::bench::BenchOptions options = bwsa::bench::parseBenchOptions(
        argc, argv, "bench_micro_components",
        /*reject_unknown=*/false);
    ::benchmark::Initialize(&argc, argv);
    if (::benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    ::benchmark::RunSpecifiedBenchmarks();
    ::benchmark::Shutdown();
    emitProfilingThroughput(options);
    emitStoreThroughput(options);
    emitBatchedReplay(options);
    return bwsa::bench::finishBench(options);
}
