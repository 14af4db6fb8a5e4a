/**
 * @file
 * Ablation: working-set definition.  The paper adopts the complete
 * subgraph definition "for the simplicity of the study" and notes
 * that other definitions are possible.  We compare all four
 * implemented definitions on small benchmarks where exhaustive
 * Bron-Kerbosch enumeration is still tractable.
 */

#include "bench_common.hh"

#include "core/working_set.hh"
#include "profile/shard.hh"
#include "util/strutil.hh"

using namespace bwsa;
using namespace bwsa::bench;

int
main(int argc, char **argv)
{
    BenchOptions options = parseBenchOptions(argc, argv, "bench_ablation_wsdef");
    if (options.benchmarks.empty())
        options.benchmarks = {"compress", "ijpeg", "pgp", "perl"};

    TextTable table({"benchmark", "definition", "sets",
                     "avg static size", "avg dynamic size",
                     "max size", "truncated"});

    for (const BenchmarkRun &run : defaultRuns(options)) {
        RowScope row_scope;
        ResolvedWorkload w =
            resolveWorkload(run.preset, run.input_label, options.scale);
        ConflictGraph pruned =
            profileTrace(*w.source()).pruned(options.threshold);

        for (WorkingSetDefinition def :
             {WorkingSetDefinition::MaximalClique,
              WorkingSetDefinition::SeededClique,
              WorkingSetDefinition::GreedyPartition,
              WorkingSetDefinition::ConnectedComponent}) {
            WorkingSetResult sets = findWorkingSets(pruned, def);
            WorkingSetStats stats =
                computeWorkingSetStats(pruned, sets);
            table.addRow({run.display,
                          workingSetDefinitionName(def),
                          withCommas(stats.total_sets),
                          fixedString(stats.avg_static_size, 1),
                          fixedString(stats.avg_dynamic_size, 1),
                          withCommas(stats.max_size),
                          sets.truncated ? "yes" : "no"});
        }
    }

    emitTable("Ablation: working-set definition", table, options);
    return finishBench(options);
}
