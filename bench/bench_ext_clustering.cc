/**
 * @file
 * Extension harness for the paper's future-work question (Section 6):
 * are clustered branch mispredictions caused by changes in the branch
 * working set?
 *
 * For each benchmark we run the baseline PAg while detecting (a) miss
 * bursts and (b) working-set shifts (low Jaccard similarity between
 * consecutive trace windows), then report how much likelier a miss is
 * in a shift's aftermath than in steady state.  Amplification > 1
 * supports the paper's conjecture.
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
    BenchOptions options = parseBenchOptions(argc, argv, "bench_ext_clustering");
    if (options.benchmarks.empty())
        options.benchmarks = {"compress", "perl", "m88ksim", "gs",
                              "python"};

    TextTable table({"benchmark", "miss %", "bursts",
                     "misses in bursts %", "avg burst len",
                     "ws shifts", "miss near shift %",
                     "miss steady %", "amplification"});

    for (const BenchmarkRun &run : defaultRuns(options)) {
        RowScope row_scope;
        Workload w =
            makeWorkload(run.preset, run.input_label, options.scale);
        WorkloadTraceSource source = w.source();

        ClusterReport report =
            analyzeMispredictionClustering(source, paperBaselineSpec());

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
