/**
 * @file
 * Shared plumbing for the table/figure reproduction harnesses.
 *
 * Every bench binary accepts:
 *   --scale=<x>       multiply run lengths (default 1.0; the paper's
 *                     scale would be ~30-50x)
 *   --benchmarks=a,b  restrict to a comma-separated preset subset
 *   --threads=<n>     sweep worker threads (default: all hardware
 *                     threads; 1 = serial, bit-identical tables)
 *   --shards=<n>      trace segments per profiling pass (default 1 =
 *                     serial profiling; sharded output is identical,
 *                     see src/profile/shard.hh)
 *   --csv=<path>      also write the table as CSV
 *   --threshold=<n>   conflict-edge threshold (default 100)
 *   --json=<path>     write a machine-readable run report (schema
 *                     bwsa.run_report.v4) when the run finishes
 *   --trace=<path>    write a Chrome trace_event JSON of the phase
 *                     spans (open in chrome://tracing or Perfetto);
 *                     with --timeseries the series render as counter
 *                     tracks alongside the spans
 *   --progress[=sec]  heartbeat line on stderr every sec seconds
 *                     (default 10) while the run is alive; --quiet
 *                     suppresses the heartbeat entirely, including
 *                     its final flush line
 *   --timeseries      sample temporal signals (windowed misprediction
 *                     rate per predictor, working-set size and churn
 *                     per window) into the run report's "timeseries"
 *                     section.  The working-set series are published
 *                     from the cell's phase accumulator after
 *                     profiling, so they cover the whole trace under
 *                     any --shards
 *   --interval=<n>    time-series window width in retired
 *                     instructions (default 65536); windows merge
 *                     pairwise when a series outgrows its budget
 *   --interference    attach the BHT interference probe to every PAg
 *                     under test: classifies each prediction under
 *                     entry sharing as agree/neutral/constructive/
 *                     destructive, prints the destructive-aliasing
 *                     table and fills the report's "interference"
 *                     section
 *   --branch-telemetry collect per-static-branch telemetry (taken /
 *                     transition rates, history entropy, lifetime,
 *                     per-branch mispredictions and aliasing
 *                     attribution) into the report's "branches"
 *                     section, and print the top-N hot / hard /
 *                     victim branch tables; implies --interference
 *   --top-branches=<n> rows per top-N branch table (default 8)
 *   --phases          detect execution phases online (churn threshold
 *                     with hysteresis over the per-window working-set
 *                     signal) and attribute results per phase: the
 *                     report's "execution_phases" section, the
 *                     whole-trace vs per-phase table, and phase spans
 *                     in the Chrome trace
 *   --phase-threshold=<x>   similarity below this opens a phase
 *                     boundary (default 0.4)
 *   --phase-hysteresis=<x>  re-arm margin above the threshold before
 *                     another boundary may fire (default 0.2)
 *   --phase-min-windows=<n> minimum phase length in windows
 *                     (default 4)
 *   --store-dir=<dir> cache profile outputs (stats, selection,
 *                     conflict graph) in this directory, keyed by
 *                     trace identity + profiling knobs; re-runs and
 *                     sweeps that vary only predictor geometry skip
 *                     re-profiling.  Without it nothing is cached.
 *                     Cached and uncached runs emit byte-identical
 *                     tables; cache hit/miss/byte counters land in
 *                     the run report (store.cache.*)
 *   --quiet/--verbose log verbosity
 *
 * Unknown `--` flags are rejected (typos would otherwise silently run
 * with defaults).  The lifecycle is: parseBenchOptions() at the top of
 * main(), RowScope inside per-benchmark loops, emitTable() per result
 * table, `return finishBench(options)` at the bottom.
 */

#ifndef BWSA_BENCH_COMMON_HH
#define BWSA_BENCH_COMMON_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/pipeline.hh"
#include "exec/sweep.hh"
#include "obs/metrics.hh"
#include "obs/phase_detect.hh"
#include "obs/phase_tracer.hh"
#include "obs/predictability.hh"
#include "report/table.hh"
#include "util/cli.hh"
#include "workload/presets.hh"

namespace bwsa::bench
{

/**
 * One command-line flag a bench binary accepts: the name (without
 * leading dashes) and a one-line description.  The common flag set
 * lives in a single declarative table (commonBenchFlags()) from which
 * parseBenchOptions() derives the known-name list, the
 * unknown-option error message and the `--help` text -- the three
 * can never drift apart.  Benches with their own knobs pass extra
 * specs to parseBenchOptions() and read the values back through its
 * @p cli_out.
 */
struct BenchFlagSpec
{
    std::string name; ///< flag name, e.g. "scale"
    std::string doc;  ///< one-line help text
};

/** The declarative table of flags every bench binary accepts. */
const std::vector<BenchFlagSpec> &commonBenchFlags();

/** Parsed common options. */
struct BenchOptions
{
    double scale = 1.0;
    std::uint64_t threshold = 100;
    unsigned threads = 1;      ///< --threads: sweep worker count
    unsigned shards = 1;       ///< --shards: profiling segments
    std::vector<std::string> benchmarks;
    std::string csv_path;
    std::string json_path;     ///< --json: run report destination
    std::string trace_path;    ///< --trace: Chrome trace destination
    double progress_sec = 0.0; ///< --progress interval; 0 = off
    bool timeseries = false;   ///< --timeseries: temporal sampling
    std::uint64_t interval = 65536; ///< --interval: window width
    bool interference = false; ///< --interference: aliasing probe
    bool branch_telemetry = false; ///< --branch-telemetry: per-branch
    std::size_t top_branches = 8;  ///< --top-branches: table rows
    bool phases = false;       ///< --phases: per-phase attribution
    double phase_threshold = 0.4;  ///< --phase-threshold
    double phase_hysteresis = 0.2; ///< --phase-hysteresis
    std::uint64_t phase_min_windows = 4; ///< --phase-min-windows
    std::string store_dir;     ///< --store-dir: artifact cache; "" = off
};

/** The detector knobs of --phase-threshold/-hysteresis/-min-windows. */
obs::PhaseDetectorConfig phaseDetectorConfig(const BenchOptions &options);

/**
 * Parse the common options out of argc/argv, set up the observability
 * layer (run report, phase tracer, progress heartbeat) and open the
 * top-level "bench.run" span.  Rejects unrecognized `--` flags.
 *
 * @param bench_name     binary name recorded in the run report
 * @param reject_unknown fatal() on unrecognized `--` flags; pass
 *                       false when a wrapping framework (google-
 *                       benchmark) consumes its own flags from argv
 * @param extra_flags    bench-specific flags accepted on top of
 *                       commonBenchFlags() (listed in --help and
 *                       excluded from unknown-flag rejection)
 * @param cli_out        when non-null, receives the parsed CliOptions
 *                       so the bench can read its extra flags' values
 */
BenchOptions
parseBenchOptions(int &argc, char **argv,
                  const std::string &bench_name,
                  bool reject_unknown = true,
                  const std::vector<BenchFlagSpec> &extra_flags = {},
                  CliOptions *cli_out = nullptr);

/**
 * Finish the run: close the "bench.run" span, stop the heartbeat and
 * write the Chrome trace / JSON report when requested.
 *
 * @return process exit code (0), so mains can `return finishBench(o)`
 */
int finishBench(const BenchOptions &options);

/**
 * RAII scope for one benchmark row: opens a "bench.row" span and
 * bumps the bench.rows counter (which the --progress heartbeat
 * reports as rows finished).  Inside a sweep cell, pass the executing
 * worker so the Chrome trace shows the parallel schedule.
 */
struct RowScope
{
    explicit RowScope(std::uint64_t work_units = 0,
                      unsigned worker = kNoWorker);

    /** Sentinel: row is not running under a sweep worker. */
    static constexpr unsigned kNoWorker = ~0u;

    obs::PhaseTracer::Span span;
};

/**
 * The benchmark/input rows of one experiment.
 *
 * Tables 1/3/4 use named inputs (perl_a, perl_b, ss_a, ss_b as
 * separate rows); Table 2 and the figures use one row per benchmark.
 */
struct BenchmarkRun
{
    std::string display;     ///< row label, e.g. "perl_a"
    std::string preset;      ///< preset name, e.g. "perl"
    std::string input_label; ///< input label, e.g. "a"
};

/** Rows with one entry per preset (default input). */
std::vector<BenchmarkRun>
defaultRuns(const BenchOptions &options,
            const std::vector<std::string> &exclude = {});

/** Rows with one entry per preset/input pair (Tables 1/3/4). */
std::vector<BenchmarkRun>
perInputRuns(const BenchOptions &options,
             const std::vector<std::string> &exclude = {});

/**
 * Emit a finished table to stdout (and CSV when requested), and
 * record it into the run report.
 */
void emitTable(const std::string &title, const TextTable &table,
               const BenchOptions &options);

/**
 * Run @p count independent sweep cells across the configured worker
 * count (`--threads`), then record the per-cell wall times and worker
 * assignment into the run report (table "sweep cells: <sweep_name>",
 * input order).  Cells must follow the SweepRunner determinism
 * contract: build all state locally and write results into slots
 * indexed by `SweepCell::index`.  With `--threads=1` the cells run
 * inline in input order -- bit-identical to the old serial loops.
 *
 * @param labels row label per cell, used in the timing table
 */
void runBenchSweep(const BenchOptions &options,
                   const std::string &sweep_name,
                   const std::vector<std::string> &labels,
                   const std::function<void(const exec::SweepCell &)>
                       &cell);

/**
 * Profile @p source into @p pipeline through a ProfileSession:
 * statistics pass, commit, then the interleave pass -- serial with
 * `--shards=1`, sharded across `options.shards` trace segments on
 * `options.threads` pool workers otherwise.  The resulting graph is
 * identical either way (shard.hh), so tables never depend on the
 * shard count.  When sharded and a run report is active, the
 * per-shard timings and stitch cost are recorded as table
 * "profile shards: <label>".  Note that inside a parallel sweep cell
 * the shard pool comes on top of the sweep workers, transiently
 * oversubscribing `--threads` -- combine `--shards` with
 * `--threads=1` (or few cells) when that matters.
 *
 * When the artifact cache is enabled (`--store-dir`) and a
 * non-empty @p identity names the trace (canonically
 * "preset:input_label"), the whole profile run is served from the
 * cache on a hit (pipeline.importProfile()) and published to it
 * after a miss.  The cache key folds in the trace identity, what
 * fixes the source's stream without running it (a workload's input
 * seed and instruction budget; any other source's record count),
 * scale, and every profiling knob of the pipeline config
 * (interleave window, coverage, static cap) -- but not the edge
 * threshold (the graph is cached unpruned; thresholding happens at
 * allocation time) and not the shard count (sharded == serial by
 * construction).  Runs with `--timeseries` bypass the cache so the
 * profiling time series are actually sampled.
 */
void profileSource(AllocationPipeline &pipeline,
                   const TraceSource &source,
                   const BenchOptions &options,
                   const std::string &label,
                   const std::string &identity = "");

/**
 * Build the Table 2 working-set table: one sweep cell per benchmark
 * profiles the trace (honouring `--shards`), prunes the conflict
 * graph at `options.threshold` and extracts SeededClique working
 * sets.  Shared with the regression tests, which compare its output
 * across thread and shard counts.
 */
TextTable buildWorkingSetTable(const BenchOptions &options);

/**
 * Build the Figure 3 / Figure 4 misprediction table: for every
 * benchmark, simulate the baseline PAg (1024-entry BHT, PC-indexed),
 * branch-allocation PAg at 16/128/1024 entries, and the
 * interference-free PAg, all over a single trace replay per cell;
 * one row per benchmark plus the arithmetic-mean row the paper's
 * figures show as "average".  Cells run as a parallel sweep over
 * `options.threads` workers; the table contents are identical for
 * every worker count.
 *
 * With `--interference` every PAg additionally runs under the BHT
 * interference probe; the per-benchmark destructive-aliasing results
 * land in the `aliasing` table (baseline vs allocated counts and the
 * percentage eliminated) and each probe's full report -- counters plus
 * conflict top-N -- is appended to the run report's "interference"
 * section.  With `--timeseries` every predictor publishes its
 * windowed misprediction rate under the benchmark's scope, next to
 * the whole-trace working-set size and churn series read off the
 * cell's phase accumulator.
 *
 * With `--branch-telemetry` every cell additionally collects one
 * per-branch telemetry scope (obs::BranchTelemetryMap wired into the
 * profiling pass, per-branch simulation counts, probe victim/
 * aggressor attribution) into the run report's "branches" section,
 * plus the top-N hot / hard / victim branch tables (rows labeled
 * "<benchmark> <pc>", `options.top_branches` rows per benchmark).
 *
 * @param options        common bench options
 * @param classification enable the Section 5.2 refinement (Figure 4)
 */
struct AllocationTables
{
    TextTable misprediction; ///< the Figure 3/4 table
    TextTable aliasing;      ///< destructive attribution
    bool has_aliasing = false; ///< aliasing rows were collected
    TextTable hot_branches;    ///< most-executed branches
    TextTable hard_branches;   ///< highest-misprediction branches
    TextTable victim_branches; ///< worst destructive-aliasing victims
    bool has_telemetry = false; ///< telemetry rows were collected
    TextTable phase_table;     ///< whole-trace vs per-phase rows
    bool has_phases = false;   ///< phase rows were collected
};

AllocationTables buildAllocationTables(const BenchOptions &options,
                                       bool classification);

/** The misprediction table only (regression-test entry point). */
TextTable buildAllocationTable(const BenchOptions &options,
                               bool classification);

/** buildAllocationTables() + emitTable() under @p title. */
void runAllocationFigure(const BenchOptions &options,
                         bool classification,
                         const std::string &title);

/**
 * One numeric row of the graph allocation-payoff study: the
 * aggregated counters of one (benchmark, predictability bin) pair.
 * The trailing row of each benchmark carries bin == binCount() and
 * label "all": the merge of every bin.
 */
struct GraphAllocBinRow
{
    std::string benchmark;              ///< workload spec / preset
    std::size_t bin = 0;                ///< bin index (easy to hard)
    std::string label;                  ///< bin label or "all"
    obs::PredictabilityBinStats stats;  ///< aggregated counters
};

/**
 * Output of the "does allocation pay off on hard branches?" study:
 * per-workload summary, the predictability-binned payoff table, and
 * the raw numeric rows for tests to assert on (bin population,
 * easy-vs-hard payoff ordering) without parsing rendered text.
 */
struct GraphAllocTables
{
    TextTable summary; ///< one row per workload, lane miss rates
    TextTable payoff;  ///< the binned payoff table
    std::vector<GraphAllocBinRow> bins; ///< numeric rows, table order
    TextTable hot_branches;    ///< --branch-telemetry: hottest
    TextTable hard_branches;   ///< --branch-telemetry: hardest
    TextTable victim_branches; ///< --branch-telemetry: worst victims
    bool has_telemetry = false; ///< telemetry rows were collected
};

/**
 * Build the graph allocation-payoff study: for every workload row
 * (default: the registered graph spec families; --benchmarks
 * overrides with any mix of graph specs and preset names), profile
 * with per-branch telemetry, simulate the baseline modulo PAg, the
 * like-sized branch-allocated PAg and the interference-free
 * reference over one replay, then aggregate per-branch mispredictions
 * and destructive-aliasing victim counts into history-entropy
 * predictability bins.  The payoff column is the relative baseline
 * miss reduction under allocation; comparing it across bins answers
 * whether BHT allocation pays off on inherently hard branches.
 *
 * @param bht_entries BHT size of the baseline and allocated lanes
 */
GraphAllocTables buildGraphAllocTables(const BenchOptions &options,
                                       std::uint64_t bht_entries);

} // namespace bwsa::bench

#endif // BWSA_BENCH_COMMON_HH
