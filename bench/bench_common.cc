#include "bench_common.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>

#include "core/pipeline.hh"
#include "core/working_set.hh"
#include "exec/thread_pool.hh"
#include "obs/branch_telemetry.hh"
#include "obs/progress.hh"
#include "obs/run_report.hh"
#include "obs/timeseries.hh"
#include "sim/batched_replay.hh"
#include "store/artifact_cache.hh"
#include "store/profile_artifact.hh"
#include "util/logging.hh"
#include "util/stats.hh"
#include "util/strutil.hh"
#include "workload/executor.hh"
#include "workload/graph/kernels.hh"

namespace bwsa::bench
{

namespace
{

/** Top-level span covering parseBenchOptions() .. finishBench(). */
std::unique_ptr<obs::PhaseTracer::Span> run_span;

/** The run's profile artifact cache; null when caching is off. */
std::unique_ptr<store::ArtifactCache> artifact_cache;

/** Serializes cache access from concurrent sweep cells. */
std::mutex cache_mutex;

/** Chrome trace phase-span events, flushed by finishBench(). */
std::vector<obs::JsonValue> phase_trace_events;

/** Serializes phase_trace_events across concurrent sweep cells. */
std::mutex phase_trace_mutex;

} // namespace

const std::vector<BenchFlagSpec> &
commonBenchFlags()
{
    // THE single declaration of the shared bench flag surface: the
    // parser's known-name list, the unknown-option error and --help
    // are all generated from this table.
    static const std::vector<BenchFlagSpec> flags = {
        {"scale", "multiply run lengths (default 1.0)"},
        {"benchmarks", "comma-separated preset subset to run"},
        {"threads", "sweep worker threads (default: hardware)"},
        {"shards", "trace segments per profiling pass (default 1)"},
        {"csv", "also write the table as CSV to this path"},
        {"threshold", "conflict-edge threshold (default 100)"},
        {"json", "write a machine-readable run report (v4 schema)"},
        {"trace", "write a Chrome trace_event JSON of the spans"},
        {"progress", "heartbeat line on stderr every N seconds"},
        {"timeseries", "sample temporal signals into the report"},
        {"interval",
         "time-series window width in instructions (default 65536)"},
        {"interference", "attach the BHT interference probe"},
        {"branch-telemetry",
         "per-branch telemetry section (implies --interference)"},
        {"top-branches", "rows per top-N branch table (default 8)"},
        {"phases",
         "detect execution phases and attribute results per phase"},
        {"phase-threshold",
         "similarity boundary threshold (default 0.4)"},
        {"phase-hysteresis",
         "re-arm margin above the threshold (default 0.2)"},
        {"phase-min-windows",
         "minimum phase length in windows (default 4)"},
        {"store-dir", "cache profile outputs in this directory"},
        {"list-presets",
         "print the registered workload presets and exit"},
        {"quiet", "suppress diagnostics and the heartbeat"},
        {"verbose", "verbose diagnostics"},
        {"help", "print the flag table and exit"},
    };
    return flags;
}

BenchOptions
parseBenchOptions(int &argc, char **argv,
                  const std::string &bench_name, bool reject_unknown,
                  const std::vector<BenchFlagSpec> &extra_flags,
                  CliOptions *cli_out)
{
    std::vector<BenchFlagSpec> flags = commonBenchFlags();
    flags.insert(flags.end(), extra_flags.begin(),
                 extra_flags.end());
    std::vector<std::string> known;
    known.reserve(flags.size());
    for (const BenchFlagSpec &flag : flags)
        known.push_back(flag.name);

    CliOptions cli = CliOptions::parse(argc, argv, known);

    if (cli.has("help")) {
        std::cout << "usage: " << bench_name << " [flags]\n";
        for (const BenchFlagSpec &flag : flags)
            std::printf("  --%-18s %s\n", flag.name.c_str(),
                        flag.doc.c_str());
        std::exit(0);
    }

    if (cli.has("list-presets")) {
        // Everything --benchmarks accepts: the synthetic preset names
        // (with their input sets) and the graph-workload spec
        // grammar with its registered families.
        std::cout << "synthetic presets (--benchmarks accepts any "
                     "subset):\n";
        for (const std::string &name : presetNames()) {
            std::cout << "  " << name;
            std::vector<NamedInput> inputs = presetInputs(name);
            if (inputs.size() > 1) {
                std::cout << " (inputs:";
                for (const NamedInput &input : inputs)
                    std::cout << " " << input.label;
                std::cout << ")";
            }
            std::cout << "\n";
        }
        std::cout << "graph workload families:\n";
        for (const std::string &spec : graph::graphPresetSpecs())
            std::cout << "  " << spec << "\n";
        std::cout
            << "graph spec grammar: "
               "graph:<kernel>:<topology>[:<key>=<value>,...]\n"
               "  kernels: bfs dfs cc pagerank; topologies: "
               "uniform powerlaw grid\n"
               "  keys: nodes degree skew wentropy shuffle "
               "replicate sources seed\n";
        std::exit(0);
    }

    std::vector<std::string> unknown =
        CliOptions::unknownFlags(argc, argv);
    if (reject_unknown && !unknown.empty()) {
        std::string supported;
        for (const BenchFlagSpec &flag : flags)
            supported += " --" + flag.name;
        bwsa_fatal("unknown option '", unknown[0],
                   "' (supported:", supported, ")");
    }

    applyLogLevelOptions(cli);

    BenchOptions options;
    options.scale = cli.getDouble("scale", 1.0);
    options.threshold = cli.getUint("threshold", 100);
    options.threads = static_cast<unsigned>(
        cli.getUint("threads", exec::ThreadPool::hardwareThreads()));
    if (options.threads == 0)
        bwsa_fatal("--threads must be >= 1");
    options.shards =
        static_cast<unsigned>(cli.getUint("shards", 1));
    if (options.shards == 0)
        bwsa_fatal("--shards must be >= 1");
    options.csv_path = cli.getRequiredString("csv", "");
    options.json_path = cli.getRequiredString("json", "");
    options.trace_path = cli.getRequiredString("trace", "");
    if (cli.has("progress")) {
        // Bare --progress (or --progress=true) means the default
        // 10 second interval.
        bool default_interval =
            cli.isBare("progress") ||
            cli.getString("progress", "") == "true";
        options.progress_sec =
            default_interval ? 10.0 : cli.getDouble("progress", 10.0);
        if (options.progress_sec <= 0.0)
            bwsa_fatal("--progress interval must be positive");
    }
    if (cli.has("benchmarks")) {
        for (const std::string &name :
             split(cli.getRequiredString("benchmarks", ""), ','))
            if (!trim(name).empty())
                options.benchmarks.push_back(trim(name));
    }
    if (options.scale <= 0.0)
        bwsa_fatal("--scale must be positive");

    options.timeseries = cli.isBare("timeseries") ||
                         cli.getString("timeseries", "") == "true";
    options.interval = cli.getUint("interval", 65536);
    if (options.interval == 0)
        bwsa_fatal("--interval must be >= 1 instruction");
    options.interference = cli.isBare("interference") ||
                           cli.getString("interference", "") == "true";
    options.branch_telemetry =
        cli.isBare("branch-telemetry") ||
        cli.getString("branch-telemetry", "") == "true";
    // Per-branch aliasing attribution comes from the probe, so
    // telemetry implies it.
    if (options.branch_telemetry)
        options.interference = true;
    options.top_branches =
        static_cast<std::size_t>(cli.getUint("top-branches", 8));
    if (options.top_branches == 0)
        bwsa_fatal("--top-branches must be >= 1");

    options.phases = cli.isBare("phases") ||
                     cli.getString("phases", "") == "true";
    options.phase_threshold = cli.getDouble("phase-threshold", 0.4);
    options.phase_hysteresis = cli.getDouble("phase-hysteresis", 0.2);
    options.phase_min_windows = cli.getUint("phase-min-windows", 4);
    if (options.phase_threshold < 0.0 || options.phase_threshold > 1.0)
        bwsa_fatal("--phase-threshold must be in [0, 1]");
    if (options.phase_hysteresis < 0.0)
        bwsa_fatal("--phase-hysteresis must be >= 0");
    if (options.phase_min_windows == 0)
        bwsa_fatal("--phase-min-windows must be >= 1");

    // The artifact cache is on iff --store-dir names a directory.
    options.store_dir = cli.getRequiredString("store-dir", "");
    if (!options.store_dir.empty())
        artifact_cache =
            std::make_unique<store::ArtifactCache>(options.store_dir);
    else
        artifact_cache.reset();

    if (options.timeseries) {
        auto &series = obs::TimeSeriesRegistry::global();
        series.configureDefaults(options.interval);
        series.setEnabled(true);
    }

    // Observability: the report always accumulates (cheap); the
    // tracer only runs when some consumer of its events exists.
    auto &report = obs::RunReport::global();
    report.begin(bench_name);
    report.setConfigValue("scale", cli.getString("scale", "1"));
    report.setConfigValue("threshold",
                          cli.getString("threshold", "100"));
    report.setConfigValues(cli.values());
    report.setConfigValue("threads",
                          std::to_string(options.threads));
    report.setConfigValue("shards", std::to_string(options.shards));

    bool want_spans = !options.json_path.empty() ||
                      !options.trace_path.empty() ||
                      options.progress_sec > 0.0;
    if (want_spans)
        obs::PhaseTracer::global().setEnabled(true);
    // --quiet wins over --progress: the heartbeat never starts, so
    // not even its final flush line reaches stderr.
    if (options.progress_sec > 0.0 && logLevel() != LogLevel::Quiet)
        obs::ProgressMeter::global().start(options.progress_sec);

    run_span =
        std::make_unique<obs::PhaseTracer::Span>("bench.run");
    if (cli_out)
        *cli_out = cli;
    return options;
}

obs::PhaseDetectorConfig
phaseDetectorConfig(const BenchOptions &options)
{
    obs::PhaseDetectorConfig config;
    config.threshold = options.phase_threshold;
    config.hysteresis = options.phase_hysteresis;
    config.min_windows = options.phase_min_windows;
    return config;
}

int
finishBench(const BenchOptions &options)
{
    run_span.reset();
    obs::ProgressMeter::global().stop();
    if (artifact_cache) {
        std::cout << "(cache " << artifact_cache->dir() << ": "
                  << artifact_cache->hits() << " hits, "
                  << artifact_cache->misses() << " misses, "
                  << artifact_cache->bytesWritten()
                  << " bytes written, " << artifact_cache->entryCount()
                  << " entries)\n";
        artifact_cache.reset();
    }
    if (!options.trace_path.empty()) {
        obs::JsonValue extra =
            obs::TimeSeriesRegistry::global().chromeCounterEvents();
        std::lock_guard<std::mutex> lock(phase_trace_mutex);
        for (obs::JsonValue &event : phase_trace_events)
            extra.push(std::move(event));
        phase_trace_events.clear();
        obs::PhaseTracer::global().writeChromeTrace(
            options.trace_path, extra);
    }
    if (!options.json_path.empty()) {
        obs::RunReport::global().write(options.json_path);
        std::cout << "(json report written to " << options.json_path
                  << ")\n";
    }
    return 0;
}

RowScope::RowScope(std::uint64_t work_units, unsigned worker)
    : span("bench.row")
{
    span.addWork(work_units);
    if (worker != kNoWorker)
        span.setWorker(worker);
    obs::MetricsRegistry::global().counter("bench.rows").inc();
}

namespace
{

bool
wanted(const BenchOptions &options, const std::string &preset,
       const std::vector<std::string> &exclude)
{
    if (std::find(exclude.begin(), exclude.end(), preset) !=
        exclude.end())
        return false;
    if (options.benchmarks.empty())
        return true;
    return std::find(options.benchmarks.begin(),
                     options.benchmarks.end(),
                     preset) != options.benchmarks.end();
}

} // namespace

namespace
{

/**
 * Graph-spec entries of --benchmarks, in the order given.  Graph
 * workloads are opt-in rows: the spec grammar is unbounded, so they
 * only run when named explicitly (unlike presets, which all run by
 * default).
 */
std::vector<BenchmarkRun>
graphRuns(const BenchOptions &options)
{
    std::vector<BenchmarkRun> runs;
    for (const std::string &name : options.benchmarks)
        if (graph::isGraphSpec(name))
            runs.push_back({name, name, ""});
    return runs;
}

} // namespace

std::vector<BenchmarkRun>
defaultRuns(const BenchOptions &options,
            const std::vector<std::string> &exclude)
{
    std::vector<BenchmarkRun> runs;
    for (const std::string &name : presetNames()) {
        if (!wanted(options, name, exclude))
            continue;
        runs.push_back({name, name, presetInputs(name)[0].label});
    }
    for (BenchmarkRun &run : graphRuns(options))
        runs.push_back(std::move(run));
    return runs;
}

std::vector<BenchmarkRun>
perInputRuns(const BenchOptions &options,
             const std::vector<std::string> &exclude)
{
    std::vector<BenchmarkRun> runs;
    for (const std::string &name : presetNames()) {
        if (!wanted(options, name, exclude))
            continue;
        std::vector<NamedInput> inputs = presetInputs(name);
        for (const NamedInput &input : inputs) {
            std::string display = name;
            if (inputs.size() > 1)
                display += "_" + input.label;
            runs.push_back({display, name, input.label});
        }
    }
    for (BenchmarkRun &run : graphRuns(options))
        runs.push_back(std::move(run));
    return runs;
}

void
emitTable(const std::string &title, const TextTable &table,
          const BenchOptions &options)
{
    BWSA_SPAN("report.emit");
    obs::RunReport::global().addTable(title, table.headers(),
                                      table.rows());
    obs::MetricsRegistry::global().counter("report.tables").inc();

    printBanner(std::cout, title);
    std::cout << table.render() << std::flush;
    if (!options.csv_path.empty()) {
        std::ofstream out(options.csv_path);
        if (!out)
            bwsa_fatal("cannot open CSV output: ", options.csv_path);
        table.writeCsv(out);
        std::cout << "(csv written to " << options.csv_path << ")\n";
    }
}

void
runBenchSweep(const BenchOptions &options,
              const std::string &sweep_name,
              const std::vector<std::string> &labels,
              const std::function<void(const exec::SweepCell &)> &cell)
{
    exec::SweepRunner runner(options.threads);
    std::vector<exec::CellTiming> timings =
        runner.run(labels.size(), cell);

    // Per-cell wall times + worker assignment into the run report, in
    // input order (result tables stay deterministic; this one records
    // the actual parallel schedule).
    auto &report = obs::RunReport::global();
    if (!report.active())
        return;
    TextTable schedule({"cell", "worker", "ms"});
    for (const exec::CellTiming &t : timings)
        schedule.addRow({labels[t.index], std::to_string(t.worker),
                         fixedString(t.millis, 3)});
    report.addTable("sweep cells: " + sweep_name, schedule.headers(),
                    schedule.rows());
}

namespace
{

/**
 * Record a sharded profiling run's per-shard timings, merge time and
 * stitch cost into the run report (table "profile shards: <label>").
 * No-op without an active report or for single-shard runs.
 */
void
recordShardStats(const std::string &label, const ShardRunStats &stats)
{
    auto &report = obs::RunReport::global();
    if (!report.active() || stats.shards <= 1)
        return;

    TextTable shard_table(
        {"shard", "worker", "records", "increments", "ms"});
    for (const ShardTiming &t : stats.timings)
        shard_table.addRow({std::to_string(t.index),
                            std::to_string(t.worker),
                            std::to_string(t.records),
                            std::to_string(t.increments),
                            fixedString(t.millis, 3)});
    shard_table.addRow({"merge", "-", "-", "-",
                        fixedString(stats.merge_millis, 3)});
    shard_table.addRow({"stitch", "-", "-",
                        std::to_string(stats.stitch.pair_increments),
                        fixedString(stats.stitch.millis, 3)});
    shard_table.addRow({"total",
                        std::to_string(stats.threads) + " threads",
                        "-", "-",
                        fixedString(stats.total_millis, 3)});
    report.addTable("profile shards: " + label, shard_table.headers(),
                    shard_table.rows());
}

/**
 * Add what fixes @p source's record stream to a profile cache key.  A
 * synthetic or graph workload is fixed by its identity and scale
 * (already in the key) plus the executor's input seed and instruction
 * budget, so it is keyed by those without running it.  Any other
 * source is keyed by its record count (a trace file reads it from
 * its trailer).
 */
void
addStreamKey(store::CacheKeyBuilder &builder, const TraceSource &source)
{
    if (const auto *w = dynamic_cast<const WorkloadTraceSource *>(&source))
        builder.add("input_seed", w->config().input_seed)
            .add("max_instructions", w->config().max_instructions);
    else if (const auto *g =
                 dynamic_cast<const graph::GraphTraceSource *>(&source))
        builder.add("input_seed", g->config().input_seed)
            .add("max_instructions", g->config().max_instructions);
    else
        builder.add("records", source.recordCount());
}

} // namespace

void
profileSource(AllocationPipeline &pipeline, const TraceSource &source,
              const BenchOptions &options, const std::string &label,
              const std::string &identity)
{
    // Time-series sampling, per-branch telemetry and phase detection
    // happen during the profiling passes; a cache hit would silently
    // suppress them, so such runs always profile for real.
    const bool cacheable = artifact_cache && !identity.empty() &&
                           !options.timeseries &&
                           !options.branch_telemetry &&
                           !options.phases;
    if (artifact_cache && !identity.empty() && !cacheable) {
        // The user asked for both the cache and a cache-defeating
        // mode; say so once per profile instead of silently
        // re-profiling.
        obs::MetricsRegistry::global()
            .counter("store.cache.bypassed")
            .inc();
        inform("profile cache bypassed for ", label, ": ",
               options.timeseries      ? "--timeseries"
               : options.branch_telemetry ? "--branch-telemetry"
                                          : "--phases",
               " samples during profiling, so this run profiles "
               "for real");
    }
    std::string key;
    if (cacheable) {
        const PipelineConfig &config = pipeline.config();
        store::CacheKeyBuilder builder;
        builder
            .add("schema", static_cast<std::uint64_t>(
                               store::profile_artifact_schema))
            .add("trace", identity);
        addStreamKey(builder, source);
        builder.add("scale", options.scale)
            .add("window", static_cast<std::uint64_t>(
                               config.interleave.max_window))
            .add("coverage", config.coverage)
            .add("max_static",
                 static_cast<std::uint64_t>(config.max_static));
        key = builder.key();

        std::lock_guard<std::mutex> lock(cache_mutex);
        BWSA_SPAN("store.cache_lookup");
        if (std::optional<store::ProfileArtifact> artifact =
                store::loadProfileArtifact(*artifact_cache, key)) {
            pipeline.importProfile(artifact->stats,
                                   artifact->selection,
                                   artifact->graph);
            debugLog("profile cache hit for ", label, " (", key, ")");
            return;
        }
    }

    // On a fresh pipeline the cumulative graph after finish() IS the
    // run graph, so the run can be captured for the cache; further
    // runs merge and are no longer separable (they still hit above).
    const bool capturable = pipeline.profileCount() == 0;

    ProfileSession session(pipeline);
    session.addStats(source);
    session.commit();
    recordShardStats(label, session.addInterleave(source, options.shards,
                                                  options.threads));
    session.finish();

    if (cacheable && capturable) {
        store::ProfileArtifact artifact{pipeline.lastStats(),
                                        pipeline.lastSelection(),
                                        pipeline.graph()};
        std::lock_guard<std::mutex> lock(cache_mutex);
        BWSA_SPAN("store.cache_store");
        store::storeProfileArtifact(*artifact_cache, key, artifact);
    }
}

namespace
{

/**
 * Publish a finished accumulator's windows as the "<scope>/working_set/
 * size" (distinct PCs per window) and "<scope>/working_set/jaccard"
 * (similarity against the previous window) time series.  The
 * accumulator is the folded whole-trace signal, so the series are the
 * same for any shard count.
 */
void
publishWorkingSetSeries(const std::string &scope,
                        const obs::PhaseAccumulator &accumulator)
{
    auto &registry = obs::TimeSeriesRegistry::global();
    obs::TimeSeries *size = registry.series(scope + "/working_set/size");
    obs::TimeSeries *churn =
        registry.series(scope + "/working_set/jaccard");
    if (!size || !churn)
        return;
    for (const obs::PhaseWindowStat &w : accumulator.windows()) {
        size->record(w.start, static_cast<double>(w.distinct));
        if (w.has_similarity)
            churn->record(w.start, w.similarity);
    }
}

} // namespace

TextTable
buildWorkingSetTable(const BenchOptions &options)
{
    TextTable table({"benchmark", "total working sets",
                     "avg static size", "avg dynamic size", "max size",
                     "static branches"});

    std::vector<BenchmarkRun> runs =
        defaultRuns(options, {"gs", "tex"});
    std::vector<std::string> labels;
    for (const BenchmarkRun &run : runs)
        labels.push_back(run.display);

    // Table 2 profiles the raw trace (no frequency reduction), so the
    // cells drive the shard engine directly instead of a pipeline.
    std::vector<std::vector<std::string>> rows(runs.size());
    std::vector<ShardRunStats> shard_stats(runs.size());
    runBenchSweep(
        options, "table2", labels,
        [&](const exec::SweepCell &cell) {
            const BenchmarkRun &run = runs[cell.index];
            RowScope row_scope(0, cell.worker);
            ResolvedWorkload w = resolveWorkload(
                run.preset, run.input_label, options.scale);
            std::unique_ptr<TraceSource> source_ptr = w.source();
            const TraceSource &source = *source_ptr;

            ShardConfig config;
            config.shards = options.shards;
            config.threads = options.threads;
            obs::PhaseAccumulator working_set(options.interval);
            if (options.timeseries)
                config.interleave.phase = &working_set;
            ConflictGraph graph;
            shard_stats[cell.index] =
                profileTraceSharded(source, graph, config);
            if (options.timeseries) {
                working_set.finish();
                publishWorkingSetSeries(run.display, working_set);
            }
            ConflictGraph pruned = graph.pruned(options.threshold);

            WorkingSetResult sets = findWorkingSets(
                pruned, WorkingSetDefinition::SeededClique);
            WorkingSetStats stats =
                computeWorkingSetStats(pruned, sets);

            rows[cell.index] = {run.display,
                                withCommas(stats.total_sets),
                                fixedString(stats.avg_static_size, 1),
                                fixedString(stats.avg_dynamic_size, 1),
                                withCommas(stats.max_size),
                                withCommas(graph.nodeCount())};
        });
    for (std::size_t r = 0; r < runs.size(); ++r) {
        table.addRow(rows[r]);
        recordShardStats(labels[r], shard_stats[r]);
    }
    return table;
}

namespace
{

/** Per-cell destructive-aliasing results of one probed cell. */
struct CellAliasing
{
    bool valid = false;
    InterferenceCounters base;     ///< baseline 1024-entry PAg
    InterferenceCounters allocated; ///< alloc-1024 PAg
};

/** Per-cell top-N branch rows of one telemetry-enabled cell. */
struct CellTelemetry
{
    bool valid = false;
    std::vector<std::vector<std::string>> hot;
    std::vector<std::vector<std::string>> hard;
    std::vector<std::vector<std::string>> victims;
};

/** Per-cell phase rows + Chrome trace spans of one --phases cell. */
struct CellPhases
{
    bool valid = false;
    std::vector<std::vector<std::string>> rows;
    std::vector<obs::JsonValue> trace_events;
};

/**
 * One cell's run report entries.  The cell fills them on its worker
 * and the input-order merge emits them, so the interference,
 * branches and execution_phases sections list cells in sweep-input
 * order whatever order the cells completed in.
 */
struct CellReport
{
    std::vector<obs::JsonValue> interference;
    obs::JsonValue branches;
    obs::JsonValue phases;

    /** Append the entries to the run report, when one is active. */
    void
    emit()
    {
        auto &report = obs::RunReport::global();
        if (!report.active())
            return;
        for (obs::JsonValue &entry : interference)
            report.addInterference(std::move(entry));
        if (!branches.isNull())
            report.addBranchTelemetry(std::move(branches));
        if (!phases.isNull())
            report.addPhaseScope(std::move(phases));
    }
};

using PcSet = std::unordered_set<std::uint64_t>;

std::string
pcHex(std::uint64_t pc)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%llx",
                  static_cast<unsigned long long>(pc));
    return buf;
}

std::uint64_t
branchExecuted(const PredictionStats &stats, std::uint64_t pc)
{
    auto it = stats.per_branch.find(pc);
    return it == stats.per_branch.end() ? 0 : it->second.total();
}

double
branchMissPercent(const PredictionStats &stats, std::uint64_t pc)
{
    auto it = stats.per_branch.find(pc);
    return it == stats.per_branch.end() ? 0.0 : it->second.percent();
}

/**
 * Collect the interference reports of the baseline (lane 0) and
 * allocated (@p alloc_lane) probes into @p report.  Returns false
 * when either lane runs without a probe.
 */
bool
collectInterference(const std::string &scope,
                    const BatchedReplayer &replayer,
                    std::size_t alloc_lane, CellReport &report)
{
    const BhtInterferenceProbe *base = replayer.probe(0);
    const BhtInterferenceProbe *alloc = replayer.probe(alloc_lane);
    if (!base || !alloc)
        return false;
    if (obs::RunReport::global().active()) {
        report.interference.push_back(
            base->reportJson(scope, replayer.laneName(0)));
        report.interference.push_back(
            alloc->reportJson(scope, replayer.laneName(alloc_lane)));
    }
    return true;
}

/**
 * Assemble one cell's per-branch telemetry: the run report "branches"
 * scope entry, into @p report (every branch, pc-ascending, with
 * per-predictor misprediction counts, probe victim/aggressor
 * attribution and the profiled predictability/lifetime fields), plus
 * the cell's top-N hot / hard / victim table rows.  Lane 0 of
 * @p replayer is the baseline; its probe and the one on @p alloc_lane
 * supply the aliasing attribution.  Everything ranks on exact counts,
 * so the output is deterministic for any thread/shard count.
 */
void
collectCellTelemetry(const std::string &scope,
                     const obs::BranchTelemetryMap &telemetry,
                     const BatchedReplayer &replayer,
                     const std::vector<PredictionStats> &results,
                     std::size_t top_n, CellTelemetry &out,
                     CellReport &report, std::size_t alloc_lane = 3,
                     std::size_t ideal_lane = 4)
{
    const std::size_t probed_lanes[] = {0, alloc_lane};
    // Universe: every branch the simulator saw plus every profiled
    // branch.  Profiling replays the same trace, so the profiled set
    // is a subset of the simulated one in practice; the union keeps
    // the section exhaustive regardless.
    std::vector<std::uint64_t> pcs;
    pcs.reserve(results[0].per_branch.size());
    for (const auto &[pc, stat] : results[0].per_branch) {
        (void)stat;
        pcs.push_back(pc);
    }
    for (std::uint64_t pc : telemetry.pcs())
        if (!results[0].per_branch.count(pc))
            pcs.push_back(pc);
    std::sort(pcs.begin(), pcs.end());

    const std::uint64_t span =
        telemetry.lastTimestamp() - telemetry.firstTimestamp();

    auto aliasingOf = [&](std::size_t lane, std::uint64_t pc) {
        BranchAliasing none;
        const BhtInterferenceProbe *probe = replayer.probe(lane);
        if (!probe)
            return none;
        const auto &map = probe->branchAliasing();
        auto it = map.find(pc);
        return it == map.end() ? none : it->second;
    };

    obs::JsonValue entry;
    entry["scope"] = scope;
    entry["entropy_order"] = telemetry.order();
    entry["profiled_branches"] =
        static_cast<std::uint64_t>(telemetry.size());

    obs::JsonValue &totals = entry["totals"];
    totals["sim_branches"] = results[0].mispredicts.total();
    totals["first_timestamp"] = telemetry.firstTimestamp();
    totals["last_timestamp"] = telemetry.lastTimestamp();
    obs::JsonValue &total_miss = totals["mispredicts"];
    for (const PredictionStats &r : results)
        total_miss[r.predictor_name] = r.mispredicts.events();
    obs::JsonValue &total_dest = totals["destructive"];
    for (std::size_t lane : probed_lanes)
        if (const BhtInterferenceProbe *probe = replayer.probe(lane))
            total_dest[replayer.laneName(lane)] =
                probe->counters().destructive;

    obs::JsonValue &branches = entry["branches"];
    branches = obs::JsonValue::array();
    for (std::uint64_t pc : pcs) {
        obs::JsonValue b;
        b["pc"] = pc;
        b["sim_executed"] = branchExecuted(results[0], pc);
        obs::JsonValue &miss = b["mispredicts"];
        for (const PredictionStats &r : results) {
            auto it = r.per_branch.find(pc);
            miss[r.predictor_name] =
                it == r.per_branch.end() ? std::uint64_t(0)
                                         : it->second.events();
        }
        obs::JsonValue aliasing;
        for (std::size_t lane : probed_lanes) {
            BranchAliasing a = aliasingOf(lane, pc);
            if (a.victim == 0 && a.aggressor == 0)
                continue;
            obs::JsonValue &slot = aliasing[replayer.laneName(lane)];
            slot["victim"] = a.victim;
            slot["aggressor"] = a.aggressor;
        }
        if (!aliasing.isNull())
            b["aliasing"] = std::move(aliasing);
        const obs::BranchTelemetry *t = telemetry.find(pc);
        b["profiled"] = (t != nullptr);
        if (t) {
            b["executed"] = t->executed;
            b["taken"] = t->taken;
            b["transitions"] = t->transitions;
            b["taken_rate"] = t->takenRate();
            b["transition_rate"] = t->transitionRate();
            b["entropy_bits"] = t->entropyBits();
            b["birth"] = t->first_seen;
            b["death"] = t->last_seen;
            b["residency"] =
                span ? static_cast<double>(t->last_seen -
                                           t->first_seen) /
                           static_cast<double>(span)
                     : 1.0;
        }
        branches.push(std::move(b));
    }

    report.branches = std::move(entry);

    // Hot: most dynamic executions first.
    out.valid = true;
    std::vector<std::uint64_t> by_hot = pcs;
    std::sort(by_hot.begin(), by_hot.end(),
              [&](std::uint64_t a, std::uint64_t b) {
                  std::uint64_t ea = branchExecuted(results[0], a);
                  std::uint64_t eb = branchExecuted(results[0], b);
                  if (ea != eb)
                      return ea > eb;
                  return a < b;
              });
    if (by_hot.size() > top_n)
        by_hot.resize(top_n);
    for (std::uint64_t pc : by_hot) {
        const obs::BranchTelemetry *t = telemetry.find(pc);
        out.hot.push_back(
            {scope + " " + pcHex(pc),
             withCommas(branchExecuted(results[0], pc)),
             t ? fixedString(100.0 * t->takenRate(), 1) : "-",
             t ? fixedString(100.0 * t->transitionRate(), 1) : "-",
             t ? fixedString(t->entropyBits(), 3) : "-",
             fixedString(branchMissPercent(results[0], pc), 3)});
    }

    // Hard: worst baseline misprediction rate among branches with a
    // meaningful sample (>= 32 executions keeps one-shot branches
    // whose rate is 0%-or-100% out of the ranking).
    std::vector<std::uint64_t> by_hard;
    for (std::uint64_t pc : pcs)
        if (branchExecuted(results[0], pc) >= 32)
            by_hard.push_back(pc);
    std::sort(by_hard.begin(), by_hard.end(),
              [&](std::uint64_t a, std::uint64_t b) {
                  double ma = branchMissPercent(results[0], a);
                  double mb = branchMissPercent(results[0], b);
                  if (ma != mb)
                      return ma > mb;
                  std::uint64_t ea = branchExecuted(results[0], a);
                  std::uint64_t eb = branchExecuted(results[0], b);
                  if (ea != eb)
                      return ea > eb;
                  return a < b;
              });
    if (by_hard.size() > top_n)
        by_hard.resize(top_n);
    for (std::uint64_t pc : by_hard) {
        const obs::BranchTelemetry *t = telemetry.find(pc);
        out.hard.push_back(
            {scope + " " + pcHex(pc),
             withCommas(branchExecuted(results[0], pc)),
             fixedString(branchMissPercent(results[0], pc), 3),
             fixedString(branchMissPercent(results[alloc_lane], pc),
                         3),
             fixedString(branchMissPercent(results[ideal_lane], pc),
                         3),
             t ? fixedString(t->entropyBits(), 3) : "-"});
    }

    // Victims: the branches the baseline's destructive aliasing hit
    // hardest, next to their fate under allocation.
    if (const BhtInterferenceProbe *base_probe = replayer.probe(0)) {
        for (const auto &[pc, a] : base_probe->topVictims(top_n)) {
            if (a.victim == 0)
                continue;
            BranchAliasing alloc = aliasingOf(alloc_lane, pc);
            out.victims.push_back(
                {scope + " " + pcHex(pc), withCommas(a.victim),
                 withCommas(a.aggressor), withCommas(alloc.victim),
                 fixedString(branchMissPercent(results[0], pc), 3),
                 fixedString(branchMissPercent(results[alloc_lane],
                                               pc),
                             3)});
        }
    }
}

/**
 * Assemble one cell's phase attribution: the run report
 * "execution_phases" scope entry, into @p report (per-phase per-lane
 * totals, born/died working-set overlap, the Jaccard similarity matrix
 * and its row-stochastic normalization), the whole-trace vs per-phase
 * table rows, and Chrome trace phase spans + working-set counters.
 * The timeline folds bit-identically across shard counts and the
 * replay is serial within a cell, so all of it is deterministic for
 * any thread/shard count.
 */
void
collectCellPhases(const std::string &scope,
                  const obs::PhaseTimeline &timeline,
                  const BatchedReplayer &replayer,
                  const std::vector<PredictionStats> &results,
                  CellPhases &out, CellReport &report)
{
    const std::vector<obs::Phase> &phases = timeline.phases;
    const std::vector<PcSet> &pcs = replayer.phasePcs();
    const std::size_t n = phases.size();

    obs::MetricsRegistry::global().counter("bench.phases").inc(n);

    // The replayer sizes its bins lazily on the first record, so an
    // empty trace leaves them empty; read through these accessors.
    static const PcSet no_pcs;
    auto phasePcsOf = [&](std::size_t i) -> const PcSet & {
        return i < pcs.size() ? pcs[i] : no_pcs;
    };
    auto binOf = [&](std::size_t lane, std::size_t i) {
        const std::vector<LanePhaseBin> &bins =
            replayer.phaseBins(lane);
        return i < bins.size() ? bins[i] : LanePhaseBin{};
    };

    // Working-set overlap: born = PCs unseen in any earlier phase,
    // died = PCs absent from every later phase.
    std::vector<std::uint64_t> born(n, 0), died(n, 0);
    {
        PcSet seen;
        for (std::size_t i = 0; i < n; ++i)
            for (std::uint64_t pc : phasePcsOf(i))
                born[i] += seen.insert(pc).second ? 1 : 0;
        PcSet later;
        for (std::size_t i = n; i-- > 0;) {
            for (std::uint64_t pc : phasePcsOf(i))
                died[i] += later.count(pc) ? 0 : 1;
            later.insert(phasePcsOf(i).begin(), phasePcsOf(i).end());
        }
    }
    PcSet whole;
    for (std::size_t i = 0; i < n; ++i)
        whole.insert(phasePcsOf(i).begin(), phasePcsOf(i).end());

    std::uint64_t total_windows = 0;
    for (const obs::Phase &phase : phases)
        total_windows += phase.window_count;

    obs::JsonValue entry;
    entry["scope"] = scope;
    entry["interval"] = timeline.interval;
    obs::JsonValue &config = entry["config"];
    config["threshold"] = timeline.config.threshold;
    config["hysteresis"] = timeline.config.hysteresis;
    config["min_windows"] = timeline.config.min_windows;

    obs::JsonValue &totals = entry["totals"];
    totals["executed"] = results[0].mispredicts.total();
    totals["phases"] = static_cast<std::uint64_t>(n);
    totals["windows"] = total_windows;
    totals["distinct_pcs"] =
        static_cast<std::uint64_t>(whole.size());
    obs::JsonValue &total_miss = totals["mispredicts"];
    for (const PredictionStats &r : results)
        total_miss[r.predictor_name] = r.mispredicts.events();
    obs::JsonValue &total_dest = totals["destructive"];
    total_dest = obs::JsonValue::object();
    for (std::size_t l = 0; l < replayer.laneCount(); ++l)
        if (const BhtInterferenceProbe *p = replayer.probe(l))
            total_dest[replayer.laneName(l)] =
                p->counters().destructive;

    obs::JsonValue &plist = entry["phases"];
    plist = obs::JsonValue::array();
    for (std::size_t i = 0; i < n; ++i) {
        const obs::Phase &phase = phases[i];
        obs::JsonValue p;
        p["index"] = static_cast<std::uint64_t>(i);
        p["start_ts"] = phase.start_ts;
        p["end_ts"] = phase.end_ts;
        p["first_window"] = phase.first_window;
        p["window_count"] = phase.window_count;
        p["boundary_similarity"] = phase.boundary_similarity;
        p["working_set"] =
            static_cast<std::uint64_t>(phasePcsOf(i).size());
        p["born"] = born[i];
        p["died"] = died[i];
        p["executed"] = binOf(0, i).executed;
        obs::JsonValue &lanes = p["lanes"];
        for (std::size_t l = 0; l < replayer.laneCount(); ++l) {
            LanePhaseBin bin = binOf(l, i);
            obs::JsonValue &slot = lanes[replayer.laneName(l)];
            slot["executed"] = bin.executed;
            slot["mispredicted"] = bin.mispredicted;
            if (replayer.probe(l))
                slot["destructive"] = bin.destructive;
        }
        plist.push(std::move(p));
    }

    // Jaccard similarity between phase working sets (diagonal 1.0),
    // plus its row-normalized form: a row-stochastic "how much does
    // the working set carry over" transition matrix.
    obs::JsonValue sim_matrix = obs::JsonValue::array();
    obs::JsonValue trans_matrix = obs::JsonValue::array();
    for (std::size_t i = 0; i < n; ++i) {
        std::vector<double> row(n);
        double sum = 0.0;
        for (std::size_t j = 0; j < n; ++j) {
            row[j] = i == j ? 1.0
                            : obs::jaccard(phasePcsOf(i),
                                           phasePcsOf(j));
            sum += row[j];
        }
        obs::JsonValue sim_row = obs::JsonValue::array();
        obs::JsonValue trans_row = obs::JsonValue::array();
        for (std::size_t j = 0; j < n; ++j) {
            sim_row.push(row[j]);
            trans_row.push(sum > 0.0 ? row[j] / sum : 0.0);
        }
        sim_matrix.push(std::move(sim_row));
        trans_matrix.push(std::move(trans_row));
    }
    entry["similarity_matrix"] = std::move(sim_matrix);
    entry["transition_matrix"] = std::move(trans_matrix);

    report.phases = std::move(entry);

    // Table rows: the whole-trace aggregate first, then each phase,
    // so a phase-local aliasing storm is readable against the flat
    // average the paper's whole-trace numbers would show.
    out.valid = true;
    const bool has_alloc = replayer.laneCount() > 3;
    const BhtInterferenceProbe *base_probe = replayer.probe(0);
    const BhtInterferenceProbe *alloc_probe =
        has_alloc ? replayer.probe(3) : nullptr;
    auto missPercent = [](const LanePhaseBin &bin) {
        return bin.executed
                   ? 100.0 * static_cast<double>(bin.mispredicted) /
                         static_cast<double>(bin.executed)
                   : 0.0;
    };
    out.rows.push_back(
        {scope, "whole", "0", withCommas(total_windows),
         withCommas(whole.size()),
         fixedString(results[0].mispredictPercent(), 3),
         has_alloc ? fixedString(results[3].mispredictPercent(), 3)
                   : "-",
         base_probe ? withCommas(base_probe->counters().destructive)
                    : "-",
         alloc_probe ? withCommas(alloc_probe->counters().destructive)
                     : "-"});
    for (std::size_t i = 0; i < n; ++i) {
        const obs::Phase &phase = phases[i];
        LanePhaseBin base_bin = binOf(0, i);
        LanePhaseBin alloc_bin =
            has_alloc ? binOf(3, i) : LanePhaseBin{};
        // Appended, not "P" + to_string(i): GCC 12 reports a false
        // -Wrestrict on that operator+ once it is inlined here.
        std::string label = "P";
        label += std::to_string(i);
        out.rows.push_back(
            {scope, label,
             withCommas(phase.start_ts),
             withCommas(phase.window_count),
             withCommas(phasePcsOf(i).size()),
             fixedString(missPercent(base_bin), 3),
             has_alloc ? fixedString(missPercent(alloc_bin), 3) : "-",
             base_probe ? withCommas(base_bin.destructive) : "-",
             alloc_probe ? withCommas(alloc_bin.destructive) : "-"});

        // Chrome trace: one complete-event span per phase plus a
        // working-set counter track, on their own track group (the
        // timestamps are retired instructions as microseconds, same
        // convention as the time-series counter tracks).
        obs::JsonValue span = obs::JsonValue::object();
        span["name"] = std::string(scope)
                           .append(" phase ")
                           .append(std::to_string(i));
        span["cat"] = "bwsa.phases";
        span["ph"] = "X";
        span["ts"] = static_cast<double>(phase.start_ts);
        span["dur"] =
            static_cast<double>(phase.end_ts - phase.start_ts);
        span["pid"] = 3u;
        obs::JsonValue args = obs::JsonValue::object();
        args["working_set"] =
            static_cast<std::uint64_t>(phasePcsOf(i).size());
        args["boundary_similarity"] = phase.boundary_similarity;
        span["args"] = std::move(args);
        out.trace_events.push_back(std::move(span));

        obs::JsonValue counter = obs::JsonValue::object();
        counter["name"] = scope + "/phase_working_set";
        counter["cat"] = "bwsa.phases";
        counter["ph"] = "C";
        counter["ts"] = static_cast<double>(phase.start_ts);
        counter["pid"] = 3u;
        obs::JsonValue cargs = obs::JsonValue::object();
        cargs["size"] =
            static_cast<std::uint64_t>(phasePcsOf(i).size());
        counter["args"] = std::move(cargs);
        out.trace_events.push_back(std::move(counter));
    }
}

} // namespace

AllocationTables
buildAllocationTables(const BenchOptions &options, bool classification)
{
    AllocationTables out{
        TextTable({"benchmark", "PAg-1024 %", "alloc-16 %",
                   "alloc-128 %", "alloc-1024 %", "ideal %",
                   "1024 gain %"}),
        TextTable({"benchmark", "base destructive", "base dest %",
                   "alloc destructive", "alloc dest %",
                   "eliminated %"}),
        false,
        TextTable({"branch", "executed", "taken %", "transition %",
                   "entropy bits", "base miss %"}),
        TextTable({"branch", "executed", "base miss %",
                   "alloc-1024 %", "ideal %", "entropy bits"}),
        TextTable({"branch", "base victim", "base aggressor",
                   "alloc victim", "base miss %", "alloc-1024 %"}),
        false,
        TextTable({"benchmark", "phase", "start", "windows",
                   "ws size", "base miss %", "alloc-1024 %",
                   "base destr", "alloc destr"}),
        false};

    std::vector<BenchmarkRun> runs = defaultRuns(options);
    std::vector<std::string> labels;
    for (const BenchmarkRun &run : runs)
        labels.push_back(run.display);

    // One sweep cell per benchmark; each builds its whole world
    // (program, trace source, profile, predictors) locally and writes
    // only its own row_values/aliasing slot, so the merge below is
    // independent of completion order.
    std::vector<std::vector<double>> row_values(runs.size());
    std::vector<CellAliasing> aliasing(runs.size());
    std::vector<CellTelemetry> telemetry_rows(runs.size());
    std::vector<CellPhases> phase_cells(runs.size());
    std::vector<CellReport> reports(runs.size());
    runBenchSweep(
        options, classification ? "fig4" : "fig3", labels,
        [&](const exec::SweepCell &cell) {
            const BenchmarkRun &run = runs[cell.index];
            RowScope row_scope(0, cell.worker);
            ResolvedWorkload w = resolveWorkload(
                run.preset, run.input_label, options.scale);
            std::unique_ptr<TraceSource> source_ptr = w.source();
            const TraceSource &source = *source_ptr;

            PipelineConfig config;
            config.allocation.edge_threshold = options.threshold;
            config.allocation.use_classification = classification;
            // Cell-local telemetry map, filled by the interleave pass
            // (sharded profiling folds its per-segment maps into it).
            obs::BranchTelemetryMap cell_map;
            if (options.branch_telemetry)
                config.interleave.telemetry = &cell_map;
            // Cell-local working-set accumulator, fed by the
            // interleave pass (sharded profiling folds per-segment
            // accumulators into it bit-identically).  It drives both
            // phase detection and the working-set time series.
            obs::PhaseAccumulator phase_accum(options.interval);
            if (options.timeseries || options.phases)
                config.interleave.phase = &phase_accum;
            AllocationPipeline pipeline(config);
            profileSource(pipeline, source, options, run.display,
                          run.preset + ":" + run.input_label);

            phase_accum.finish();
            obs::PhaseTimeline timeline;
            if (options.phases)
                timeline = obs::detectPhases(
                    phase_accum, phaseDetectorConfig(options));
            if (options.timeseries)
                publishWorkingSetSeries(run.display, phase_accum);

            // The probe rides the baseline and the like-sized
            // allocated PAg (lanes 0 and 3): the pair whose
            // destructive counts the allocation claim is about.
            const std::vector<PredictorSpec> specs{
                paperBaselineSpec(), pipeline.predictorSpec(16),
                pipeline.predictorSpec(128),
                pipeline.predictorSpec(1024), interferenceFreeSpec()};
            BatchedReplayer replayer(options.branch_telemetry);
            for (std::size_t i = 0; i < specs.size(); ++i) {
                BatchedLaneOptions lane_options;
                if (options.timeseries)
                    lane_options.series_scope = run.display;
                lane_options.probe =
                    options.interference && (i == 0 || i == 3);
                replayer.addLane(specs[i], lane_options);
            }
            if (options.phases)
                replayer.setPhaseTimeline(&timeline);
            replayer.replay(source);
            const std::vector<PredictionStats> results =
                replayer.allStats();

            CellReport &report = reports[cell.index];
            if (collectInterference(run.display, replayer, 3, report)) {
                CellAliasing &slot = aliasing[cell.index];
                slot.valid = true;
                slot.base = replayer.probe(0)->counters();
                slot.allocated = replayer.probe(3)->counters();
            }

            if (options.branch_telemetry)
                collectCellTelemetry(run.display, cell_map, replayer,
                                     results, options.top_branches,
                                     telemetry_rows[cell.index], report);

            if (options.phases)
                collectCellPhases(run.display, timeline, replayer,
                                  results, phase_cells[cell.index],
                                  report);

            double base_rate = results[0].mispredictPercent();
            double alloc1024_rate = results[3].mispredictPercent();
            double gain =
                base_rate > 0.0
                    ? 100.0 * (base_rate - alloc1024_rate) / base_rate
                    : 0.0;

            row_values[cell.index] = {
                base_rate, results[1].mispredictPercent(),
                results[2].mispredictPercent(), alloc1024_rate,
                results[4].mispredictPercent(), gain};
            std::cout << "." << std::flush; // progress
        });
    std::cout << "\n";

    // Deterministic merge: rows and column averages accumulate in
    // input order whatever the parallel completion order was.
    std::vector<RunningStat> columns(6);
    for (std::size_t r = 0; r < runs.size(); ++r) {
        reports[r].emit();
        const std::vector<double> &values = row_values[r];
        for (std::size_t i = 0; i < values.size(); ++i)
            columns[i].add(values[i]);
        out.misprediction.addRow(
            {runs[r].display, fixedString(values[0], 3),
             fixedString(values[1], 3), fixedString(values[2], 3),
             fixedString(values[3], 3), fixedString(values[4], 3),
             fixedString(values[5], 1)});

        const CellTelemetry &tel = telemetry_rows[r];
        if (tel.valid) {
            out.has_telemetry = true;
            for (const std::vector<std::string> &row : tel.hot)
                out.hot_branches.addRow(row);
            for (const std::vector<std::string> &row : tel.hard)
                out.hard_branches.addRow(row);
            for (const std::vector<std::string> &row : tel.victims)
                out.victim_branches.addRow(row);
        }

        CellPhases &ph = phase_cells[r];
        if (ph.valid) {
            out.has_phases = true;
            for (const std::vector<std::string> &row : ph.rows)
                out.phase_table.addRow(row);
            std::lock_guard<std::mutex> lock(phase_trace_mutex);
            for (obs::JsonValue &event : ph.trace_events)
                phase_trace_events.push_back(std::move(event));
            ph.trace_events.clear();
        }

        const CellAliasing &cell = aliasing[r];
        if (!cell.valid)
            continue;
        out.has_aliasing = true;
        double eliminated =
            cell.base.destructive
                ? 100.0 *
                      (static_cast<double>(cell.base.destructive) -
                       static_cast<double>(
                           cell.allocated.destructive)) /
                      static_cast<double>(cell.base.destructive)
                : 0.0;
        out.aliasing.addRow(
            {runs[r].display, withCommas(cell.base.destructive),
             fixedString(cell.base.destructivePercent(), 3),
             withCommas(cell.allocated.destructive),
             fixedString(cell.allocated.destructivePercent(), 3),
             fixedString(eliminated, 1)});
    }

    out.misprediction.addRow(
        {"average", fixedString(columns[0].mean(), 3),
         fixedString(columns[1].mean(), 3),
         fixedString(columns[2].mean(), 3),
         fixedString(columns[3].mean(), 3),
         fixedString(columns[4].mean(), 3),
         fixedString(columns[5].mean(), 1)});
    return out;
}

TextTable
buildAllocationTable(const BenchOptions &options, bool classification)
{
    return buildAllocationTables(options, classification)
        .misprediction;
}

void
runAllocationFigure(const BenchOptions &options, bool classification,
                    const std::string &title)
{
    AllocationTables tables =
        buildAllocationTables(options, classification);
    emitTable(title, tables.misprediction, options);
    if (tables.has_aliasing)
        emitTable(title + " -- destructive aliasing", tables.aliasing,
                  options);
    if (tables.has_telemetry) {
        emitTable("branch telemetry: hot branches",
                  tables.hot_branches, options);
        emitTable("branch telemetry: hard branches",
                  tables.hard_branches, options);
        emitTable("branch telemetry: victim branches",
                  tables.victim_branches, options);
    }
    if (tables.has_phases)
        emitTable(title + " -- execution phases", tables.phase_table,
                  options);
}

namespace
{

/** One cell's numeric output of the graph allocation study. */
struct CellGraphAlloc
{
    std::vector<GraphAllocBinRow> rows; ///< bins then the "all" row
    double ideal_percent = 0.0;         ///< interference-free lane
    CellTelemetry telemetry;            ///< --branch-telemetry tables
    CellReport report;                  ///< run report entries
};

} // namespace

GraphAllocTables
buildGraphAllocTables(const BenchOptions &options,
                      std::uint64_t bht_entries)
{
    if (bht_entries == 0)
        bwsa_fatal("graph allocation bench needs --bht >= 1");

    GraphAllocTables out{
        TextTable({"benchmark", "static branches", "dyn branches",
                   "base miss %", "alloc miss %", "ideal miss %",
                   "payoff %", "destr eliminated %"}),
        TextTable({"benchmark", "bin", "branches", "executed",
                   "base miss", "base miss %", "alloc miss",
                   "alloc miss %", "payoff %", "base victims",
                   "alloc victims", "eliminated %"}),
        {},
        TextTable({"branch", "executed", "taken %", "transition %",
                   "entropy bits", "base miss %"}),
        TextTable({"branch", "executed", "base miss %", "alloc %",
                   "ideal %", "entropy bits"}),
        TextTable({"branch", "base victim", "base aggressor",
                   "alloc victim", "base miss %", "alloc %"}),
        false};

    // Graph specs are the default row set (the study is about
    // data-driven branches), but any preset name works: the
    // predictability bins only need per-branch telemetry, which every
    // workload family produces.
    std::vector<BenchmarkRun> runs;
    if (options.benchmarks.empty()) {
        for (const std::string &spec : graph::graphPresetSpecs())
            runs.push_back({spec, spec, ""});
    } else {
        for (const std::string &name : options.benchmarks)
            runs.push_back({name, name, ""});
    }
    std::vector<std::string> labels;
    for (const BenchmarkRun &run : runs)
        labels.push_back(run.display);

    std::vector<CellGraphAlloc> cells(runs.size());
    runBenchSweep(
        options, "graph_alloc", labels,
        [&](const exec::SweepCell &cell) {
            const BenchmarkRun &run = runs[cell.index];
            RowScope row_scope(0, cell.worker);
            ResolvedWorkload w = resolveWorkload(
                run.preset, run.input_label, options.scale);
            std::unique_ptr<TraceSource> source_ptr = w.source();
            const TraceSource &source = *source_ptr;

            PipelineConfig config;
            config.allocation.edge_threshold = options.threshold;
            // Full coverage: telemetry records post-frequency-filter,
            // and the bins must partition exactly the simulated
            // branch set for the "all" row to reconcile against the
            // lane totals.
            config.coverage = 1.0;
            obs::PhaseAccumulator working_set(options.interval);
            if (options.timeseries)
                config.interleave.phase = &working_set;
            // The bins are keyed on per-branch history entropy, so
            // this bench always profiles with the telemetry map wired
            // in.  Pass an empty cache identity: a cache hit would
            // skip the interleave pass and leave the map empty.
            obs::BranchTelemetryMap cell_map;
            config.interleave.telemetry = &cell_map;
            AllocationPipeline pipeline(config);
            profileSource(pipeline, source, options, run.display, "");
            if (options.timeseries) {
                working_set.finish();
                publishWorkingSetSeries(run.display, working_set);
            }

            // Baseline modulo PAg, like-sized allocated PAg, and the
            // interference-free reference, probes on the first two:
            // the payoff columns compare lanes 0 and 1 per bin.
            const std::vector<PredictorSpec> specs{
                parsePredictorSpec(std::string("pag:bht=").append(
                    std::to_string(bht_entries))),
                pipeline.predictorSpec(bht_entries),
                interferenceFreeSpec()};
            BatchedReplayer replayer(true);
            for (std::size_t i = 0; i < specs.size(); ++i) {
                BatchedLaneOptions lane_options;
                if (options.timeseries)
                    lane_options.series_scope = run.display;
                lane_options.probe = i < 2;
                replayer.addLane(specs[i], lane_options);
            }
            replayer.replay(source);
            const std::vector<PredictionStats> results =
                replayer.allStats();
            CellGraphAlloc &slot = cells[cell.index];
            collectInterference(run.display, replayer, 1, slot.report);

            // Fold every profiled branch into its predictability bin;
            // the trailing "all" row is the merge of every bin, which
            // the schema checker reconciles against the bin sums.
            obs::PredictabilityBinner binner;
            std::vector<obs::PredictabilityBinStats> bins(
                binner.binCount());
            auto victimsOf = [&](std::size_t lane,
                                 std::uint64_t pc) -> std::uint64_t {
                const BhtInterferenceProbe *probe = replayer.probe(lane);
                if (!probe)
                    return 0;
                const auto &map = probe->branchAliasing();
                auto it = map.find(pc);
                return it == map.end() ? 0 : it->second.victim;
            };
            for (std::uint64_t pc : cell_map.pcs()) {
                const obs::BranchTelemetry *t = cell_map.find(pc);
                obs::PredictabilityBinStats &bin =
                    bins[binner.binOf(t->entropyBits())];
                bin.branches += 1;
                auto base_it = results[0].per_branch.find(pc);
                if (base_it != results[0].per_branch.end()) {
                    bin.executed += base_it->second.total();
                    bin.base_miss += base_it->second.events();
                }
                auto alloc_it = results[1].per_branch.find(pc);
                if (alloc_it != results[1].per_branch.end())
                    bin.alloc_miss += alloc_it->second.events();
                bin.base_victims += victimsOf(0, pc);
                bin.alloc_victims += victimsOf(1, pc);
            }

            slot.ideal_percent = results[2].mispredictPercent();
            obs::PredictabilityBinStats all;
            for (std::size_t i = 0; i < bins.size(); ++i) {
                slot.rows.push_back(
                    {run.display, i, binner.label(i), bins[i]});
                all.merge(bins[i]);
            }
            slot.rows.push_back(
                {run.display, bins.size(), "all", all});

            if (options.branch_telemetry)
                collectCellTelemetry(run.display, cell_map, replayer,
                                     results, options.top_branches,
                                     slot.telemetry, slot.report, 1, 2);

            std::cout << "." << std::flush; // progress
        });
    std::cout << "\n";

    // Deterministic merge in input order.
    for (std::size_t r = 0; r < runs.size(); ++r) {
        CellGraphAlloc &cell = cells[r];
        cell.report.emit();
        const obs::PredictabilityBinStats &all =
            cell.rows.back().stats;
        // Whole-workload summary row; miss rates here are per-branch
        // aggregates, which equal the lane totals because every
        // simulated branch is profiled.
        double payoff = all.payoffPercent();
        out.summary.addRow(
            {labels[r], withCommas(all.branches),
             withCommas(all.executed),
             fixedString(all.baseMissPercent(), 3),
             fixedString(all.allocMissPercent(), 3),
             fixedString(cell.ideal_percent, 3),
             fixedString(payoff, 2),
             fixedString(all.victimsEliminatedPercent(), 1)});
        for (const GraphAllocBinRow &row : cell.rows) {
            const obs::PredictabilityBinStats &b = row.stats;
            out.payoff.addRow(
                {row.benchmark, row.label, withCommas(b.branches),
                 withCommas(b.executed), withCommas(b.base_miss),
                 fixedString(b.baseMissPercent(), 3),
                 withCommas(b.alloc_miss),
                 fixedString(b.allocMissPercent(), 3),
                 fixedString(b.payoffPercent(), 2),
                 withCommas(b.base_victims),
                 withCommas(b.alloc_victims),
                 fixedString(b.victimsEliminatedPercent(), 1)});
            out.bins.push_back(row);
        }
        if (cell.telemetry.valid) {
            out.has_telemetry = true;
            for (const std::vector<std::string> &row :
                 cell.telemetry.hot)
                out.hot_branches.addRow(row);
            for (const std::vector<std::string> &row :
                 cell.telemetry.hard)
                out.hard_branches.addRow(row);
            for (const std::vector<std::string> &row :
                 cell.telemetry.victims)
                out.victim_branches.addRow(row);
        }
    }
    return out;
}

} // namespace bwsa::bench
