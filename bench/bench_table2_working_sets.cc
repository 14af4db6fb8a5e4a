/**
 * @file
 * Table 2 reproduction: for each benchmark, the total number of
 * branch working sets, the average static working set size, and the
 * average dynamic (execution-weighted) working set size.
 *
 * Working sets are complete subgraphs of the threshold-pruned branch
 * conflict graph.  We report the SeededClique extraction (one maximal
 * clique grown per branch, deduplicated); see DESIGN.md for why full
 * Bron-Kerbosch enumeration is reserved for the ablation harness.
 *
 * Benchmarks run as a parallel sweep over `--threads` workers, and
 * each profiling pass can itself be sharded with `--shards`; the
 * table is identical for every thread and shard count (see
 * bench_common.hh's buildWorkingSetTable, shared with the regression
 * tests).
 *
 * The paper's Table 2 covers 11 benchmarks (no gs, no tex); pass
 * --benchmarks=... to override.
 */

#include "bench_common.hh"

using namespace bwsa;
using namespace bwsa::bench;

int
main(int argc, char **argv)
{
    BenchOptions options = parseBenchOptions(argc, argv, "bench_table2_working_sets");

    TextTable table = buildWorkingSetTable(options);

    emitTable(std::string("Table 2: the sizes of branch working sets "
                          "(threshold ")
                  .append(std::to_string(options.threshold))
                  .append(")"),
              table, options);
    return finishBench(options);
}
