/**
 * @file
 * Table 4 reproduction: the BHT size required for branch allocation
 * *with branch classification* to reduce table conflicts below a
 * conventional 1024-entry PC-indexed BHT.
 *
 * Classification (Section 5.2) treats branches >99% or <1% taken as
 * two shared classes: conflicts within a biased class are harmless
 * and two BHT entries are set aside for them, so only the mixed
 * branches compete for the remaining entries.
 */

#include "bench_common.hh"

#include "core/classification.hh"
#include "core/pipeline.hh"
#include "util/strutil.hh"

using namespace bwsa;
using namespace bwsa::bench;

int
main(int argc, char **argv)
{
    BenchOptions options = parseBenchOptions(argc, argv, "bench_table4_alloc_class_size");

    TextTable table({"benchmark", "BHT size required",
                     "baseline conflict @1024", "biased taken",
                     "biased not-taken", "mixed"});

    std::vector<BenchmarkRun> runs = perInputRuns(options, {"ijpeg"});
    std::vector<std::string> labels;
    for (const BenchmarkRun &run : runs)
        labels.push_back(run.display);

    // Cells write only their own rows slot; the table is assembled in
    // input order below, so output is identical for any --threads.
    std::vector<std::vector<std::string>> rows(runs.size());
    runBenchSweep(
        options, "table4", labels,
        [&](const exec::SweepCell &cell) {
            const BenchmarkRun &run = runs[cell.index];
            RowScope row_scope(0, cell.worker);
            ResolvedWorkload w = resolveWorkload(
                run.preset, run.input_label, options.scale);

            PipelineConfig config;
            config.allocation.edge_threshold = options.threshold;
            config.allocation.use_classification = true;
            config.allocation.bias_cutoff = 0.99;
            AllocationPipeline pipeline(config);
            profileSource(pipeline, *w.source(), options, run.display,
                          run.preset + ":" + run.input_label);

            RequiredSizeResult req = pipeline.requiredSize(1024);

            BranchClassifier classifier(0.99);
            ClassCounts counts = countClasses(
                classifier.classifyGraph(pipeline.graph()));

            rows[cell.index] = {
                run.display,
                req.achieved ? withCommas(req.required_entries)
                             : std::string("> 4096"),
                withCommas(req.baseline_conflict),
                withCommas(counts.biased_taken),
                withCommas(counts.biased_not_taken),
                withCommas(counts.mixed)};
        });
    for (const std::vector<std::string> &row : rows)
        table.addRow(row);

    emitTable("Table 4: BHT size required with branch classification",
              table, options);
    return finishBench(options);
}
