/**
 * @file
 * Ablation (Section 4.2 text): sensitivity of the analysis to the
 * conflict-edge threshold.  The paper states that 100 vs 500 vs 1000
 * makes no significant difference to the working set information; we
 * verify by sweeping the threshold over a benchmark subset and
 * reporting working-set statistics and the Table 3 required size.
 */

#include "bench_common.hh"

#include "core/pipeline.hh"
#include "core/working_set.hh"
#include "profile/shard.hh"
#include "util/strutil.hh"

using namespace bwsa;
using namespace bwsa::bench;

int
main(int argc, char **argv)
{
    BenchOptions options = parseBenchOptions(argc, argv, "bench_ablation_threshold");
    if (options.benchmarks.empty())
        options.benchmarks = {"compress", "perl", "m88ksim", "li"};

    TextTable table({"benchmark", "threshold", "kept edges",
                     "working sets", "avg dynamic size",
                     "BHT required"});

    for (const BenchmarkRun &run : defaultRuns(options)) {
        RowScope row_scope;
        ResolvedWorkload w =
            resolveWorkload(run.preset, run.input_label, options.scale);
        ConflictGraph graph = profileTrace(*w.source());

        for (std::uint64_t threshold : {100ull, 500ull, 1000ull}) {
            ConflictGraph pruned = graph.pruned(threshold);
            WorkingSetResult sets = findWorkingSets(
                pruned, WorkingSetDefinition::SeededClique);
            WorkingSetStats stats =
                computeWorkingSetStats(pruned, sets);

            AllocationConfig config;
            config.edge_threshold = threshold;
            RequiredSizeResult req =
                requiredTableSize(graph, config, 1024);

            table.addRow(
                {run.display, std::to_string(threshold),
                 withCommas(pruned.edgeCount()),
                 withCommas(stats.total_sets),
                 fixedString(stats.avg_dynamic_size, 1),
                 req.achieved ? withCommas(req.required_entries)
                              : std::string("> 4096")});
        }
    }

    emitTable("Ablation: conflict threshold sensitivity "
              "(paper: no significant difference)",
              table, options);
    return finishBench(options);
}
