/**
 * @file
 * Ablation: classification bias cutoff.  The paper uses 99% (and
 * mentions static prediction of the classified branches as an ISA
 * option); we sweep the cutoff to show the trade-off it controls:
 * a looser cutoff classifies more branches (smaller table
 * requirement) but shares history among less-perfectly-biased
 * branches (slightly worse prediction at large tables).
 */

#include "bench_common.hh"

#include "core/classification.hh"
#include "core/pipeline.hh"
#include "sim/batched_replay.hh"
#include "util/strutil.hh"

using namespace bwsa;
using namespace bwsa::bench;

int
main(int argc, char **argv)
{
    BenchOptions options = parseBenchOptions(argc, argv, "bench_ablation_bias_cutoff");
    if (options.benchmarks.empty())
        options.benchmarks = {"m88ksim", "li", "plot"};

    TextTable table({"benchmark", "cutoff", "classified %",
                     "BHT required", "alloc-128 miss %",
                     "alloc-1024 miss %"});

    for (const BenchmarkRun &run : defaultRuns(options)) {
        RowScope row_scope;
        Workload w =
            makeWorkload(run.preset, run.input_label, options.scale);
        WorkloadTraceSource source = w.source();

        for (double cutoff : {0.95, 0.99, 0.999}) {
            PipelineConfig config;
            config.allocation.edge_threshold = options.threshold;
            config.allocation.use_classification = true;
            config.allocation.bias_cutoff = cutoff;
            AllocationPipeline pipeline(config);
            // The bias cutoff is an allocation-time knob, so all
            // three cutoffs share one cache key: with --cache the
            // second and third profile of each trace are hits.
            profileSource(pipeline, source, options,
                          run.display + "@" + fixedString(cutoff, 3),
                          run.preset + ":" + run.input_label);

            BranchClassifier classifier(cutoff);
            ClassCounts counts = countClasses(
                classifier.classifyGraph(pipeline.graph()));
            double classified =
                counts.total()
                    ? 100.0 *
                          static_cast<double>(counts.total() -
                                              counts.mixed) /
                          static_cast<double>(counts.total())
                    : 0.0;

            RequiredSizeResult req = pipeline.requiredSize(1024);

            std::vector<PredictionStats> results = replayBatched(
                source, {pipeline.predictorSpec(128),
                         pipeline.predictorSpec(1024)});

            table.addRow(
                {run.display, fixedString(cutoff, 3),
                 fixedString(classified, 1),
                 req.achieved ? withCommas(req.required_entries)
                              : std::string("> 4096"),
                 fixedString(results[0].mispredictPercent(), 3),
                 fixedString(results[1].mispredictPercent(), 3)});
        }
    }

    emitTable("Ablation: classification bias cutoff", table, options);
    return finishBench(options);
}
