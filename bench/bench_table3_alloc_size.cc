/**
 * @file
 * Table 3 reproduction: the BHT size required for branch allocation
 * to reduce table conflicts below those of a conventional 1024-entry
 * PC-indexed BHT, without branch classification.
 *
 * Rows follow the paper: one per benchmark/input pair (perl and ss
 * appear twice, once per profiling input), ijpeg excluded.
 */

#include "bench_common.hh"

#include "core/pipeline.hh"
#include "util/strutil.hh"

using namespace bwsa;
using namespace bwsa::bench;

int
main(int argc, char **argv)
{
    BenchOptions options = parseBenchOptions(argc, argv, "bench_table3_alloc_size");

    TextTable table({"benchmark", "BHT size required",
                     "baseline conflict @1024", "residual conflict",
                     "shared branches"});

    std::vector<BenchmarkRun> runs = perInputRuns(options, {"ijpeg"});
    std::vector<std::string> labels;
    for (const BenchmarkRun &run : runs)
        labels.push_back(run.display);

    // Cells write only their own rows slot; the table is assembled in
    // input order below, so output is identical for any --threads.
    std::vector<std::vector<std::string>> rows(runs.size());
    runBenchSweep(
        options, "table3", labels,
        [&](const exec::SweepCell &cell) {
            const BenchmarkRun &run = runs[cell.index];
            RowScope row_scope(0, cell.worker);
            ResolvedWorkload w = resolveWorkload(
                run.preset, run.input_label, options.scale);

            PipelineConfig config;
            config.allocation.edge_threshold = options.threshold;
            AllocationPipeline pipeline(config);
            profileSource(pipeline, *w.source(), options, run.display,
                          run.preset + ":" + run.input_label);

            RequiredSizeResult req = pipeline.requiredSize(1024);
            rows[cell.index] = {
                run.display,
                req.achieved ? withCommas(req.required_entries)
                             : std::string("> 4096"),
                withCommas(req.baseline_conflict),
                withCommas(req.allocation.residual_conflict),
                withCommas(req.allocation.shared_nodes)};
        });
    for (const std::vector<std::string> &row : rows)
        table.addRow(row);

    emitTable("Table 3: BHT size required for branch allocation",
              table, options);
    return finishBench(options);
}
