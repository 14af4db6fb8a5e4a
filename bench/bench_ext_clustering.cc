/**
 * @file
 * Extension harness for the paper's future-work question (Section 6):
 * are clustered branch mispredictions caused by changes in the branch
 * working set?
 *
 * For each benchmark we run the baseline PAg while detecting (a) miss
 * bursts and (b) working-set shifts -- the phase boundaries of the
 * --phases detector over --interval windows (--phase-threshold,
 * --phase-hysteresis and --phase-min-windows apply) -- then report
 * how much likelier a miss is in a shift's aftermath than in steady
 * state.  Amplification > 1 supports the paper's conjecture.
 */

#include "bench_common.hh"

#include "predict/factory.hh"
#include "sim/cluster_analysis.hh"
#include "util/strutil.hh"

using namespace bwsa;
using namespace bwsa::bench;

int
main(int argc, char **argv)
{
    CliOptions cli;
    BenchOptions options = parseBenchOptions(
        argc, argv, "bench_ext_clustering", true, {}, &cli);
    if (options.benchmarks.empty())
        options.benchmarks = {"compress", "perl", "m88ksim", "gs",
                              "python"};
    // Without --interval the analysis keeps its own 4096-instruction
    // default: the common 65536-instruction window is wider than most
    // of these programs' phases (compress shows no boundary at all).
    ClusterConfig config;
    if (cli.has("interval"))
        config.interval = options.interval;
    config.phases = phaseDetectorConfig(options);

    TextTable table({"benchmark", "miss %", "bursts",
                     "misses in bursts %", "avg burst len",
                     "ws shifts", "miss near shift %",
                     "miss steady %", "amplification"});

    for (const BenchmarkRun &run : defaultRuns(options)) {
        RowScope row_scope;
        ResolvedWorkload w =
            resolveWorkload(run.preset, run.input_label, options.scale);

        ClusterReport report =
            analyzeMispredictionClustering(*w.source(),
                                           paperBaselineSpec(), config);

        double miss_pct =
            report.branches
                ? 100.0 * static_cast<double>(report.misses) /
                      static_cast<double>(report.branches)
                : 0.0;
        table.addRow(
            {run.display, fixedString(miss_pct, 3),
             withCommas(report.bursts),
             percentString(report.burstMissFraction(), 1),
             fixedString(report.avg_burst_length, 1),
             withCommas(report.shifts),
             fixedString(report.near_shift.percent(), 3),
             fixedString(report.steady.percent(), 3),
             fixedString(report.shiftMissAmplification(), 2)});
    }

    emitTable("Extension: misprediction clustering vs working-set "
              "shifts (Section 6 future work)",
              table, options);
    return finishBench(options);
}
