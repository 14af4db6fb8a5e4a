/**
 * @file
 * google-benchmark microbenchmarks of what the per-layer ledger
 * (perfbench, BENCH_PERF.json) cannot see: the batched replay engine's
 * one-decode/N-lane speedup, and the cost of each opt-in
 * observability flag against its own disabled row.
 *
 * The "batched replay" table is a gate as well as a headline: the
 * binary exits nonzero when any lane of the one-decode pass differs
 * from its single-lane pass.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <limits>

#include "bench_common.hh"
#include "obs/branch_telemetry.hh"
#include "predict/factory.hh"
#include "profile/interleave.hh"
#include "sim/batched_replay.hh"
#include "trace/trace.hh"
#include "util/logging.hh"
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
 * processed count records x predictors.
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
 * The interference probe's replay cost on the baseline PAg lane:
 * probe_on against probe_off, where a disabled probe is one
 * null-pointer test per step.
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
 * Per-branch telemetry's profiling-replay cost: telemetry_on against
 * telemetry_off, where a disabled map is one null-pointer test per
 * branch.
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

/** Milliseconds spent in @p fn (one shot). */
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
 * The headline batched-replay measurement: the fig3-shaped contender
 * set replayed as N single-lane passes (N decodes) and as one N-lane
 * pass (1 decode), best of five shots each, with per-lane
 * misprediction identity checked between the two.
 *
 * @return true when every lane matches its single-lane pass
 */
bool
emitBatchedReplay(const bench::BenchOptions &options)
{
    const MemoryTrace &trace = cachedTrace();
    const std::vector<PredictorSpec> specs = replayContenders();

    // The minimum of five alternating shots per side: on a shared
    // machine one shot swings the ratio by more than it measures.
    double serial_ms = std::numeric_limits<double>::infinity();
    double batched_ms = serial_ms;
    std::vector<PredictionStats> serial_stats;
    std::vector<PredictionStats> batched_stats;
    for (int shot = 0; shot < 5; ++shot) {
        serial_stats.clear();
        serial_ms = std::min(serial_ms, timedMillis([&] {
            for (const PredictorSpec &spec : specs)
                serial_stats.push_back(
                    replayBatched(trace, {spec})[0]);
        }));
        batched_ms = std::min(batched_ms, timedMillis([&] {
            batched_stats = replayBatched(trace, specs);
        }));
    }

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
    return identical;
}

} // namespace

BENCHMARK(BM_BatchedReplay)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_PredictorStepProbe, probe_off, false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_PredictorStepProbe, probe_on, true)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_InterleaveTrackingTelemetry, telemetry_off,
                  false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_InterleaveTrackingTelemetry, telemetry_on, true)
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
    bool identical = emitBatchedReplay(options);
    int rc = bwsa::bench::finishBench(options);
    if (!identical)
        bwsa_fatal("batched replay lanes diverge from their "
                   "single-lane passes");
    return rc;
}
