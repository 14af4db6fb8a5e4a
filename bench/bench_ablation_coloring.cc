/**
 * @file
 * Ablation: share-candidate selection in the allocator.  The paper
 * merges "the branches with the fewest conflicts" when a working set
 * exceeds the table; the classic register-allocation alternative
 * picks by degree.  We compare required sizes and the residual
 * contention at a fixed 128-entry table.
 */

#include "bench_common.hh"

#include "core/pipeline.hh"
#include "util/strutil.hh"

using namespace bwsa;
using namespace bwsa::bench;

int
main(int argc, char **argv)
{
    BenchOptions options = parseBenchOptions(argc, argv, "bench_ablation_coloring");
    if (options.benchmarks.empty())
        options.benchmarks = {"m88ksim", "li", "gs", "plot"};

    TextTable table({"benchmark", "share policy", "BHT required",
                     "residual @128", "shared @128"});

    for (const BenchmarkRun &run : defaultRuns(options)) {
        RowScope row_scope;
        ResolvedWorkload w =
            resolveWorkload(run.preset, run.input_label, options.scale);
        ConflictGraph graph = profileTrace(*w.source());

        for (SharePolicy policy : {SharePolicy::FewestConflicts,
                                   SharePolicy::LowestDegree}) {
            AllocationConfig config;
            config.edge_threshold = options.threshold;
            config.share_policy = policy;

            RequiredSizeResult req =
                requiredTableSize(graph, config, 1024);
            AllocationResult at128 =
                allocateBranches(graph, 128, config);

            table.addRow(
                {run.display,
                 policy == SharePolicy::FewestConflicts
                     ? "fewest-conflicts (paper)"
                     : "lowest-degree",
                 req.achieved ? withCommas(req.required_entries)
                              : std::string("> 4096"),
                 withCommas(at128.residual_conflict),
                 withCommas(at128.shared_nodes)});
        }
    }

    emitTable("Ablation: allocator share-candidate policy", table,
              options);
    return finishBench(options);
}
