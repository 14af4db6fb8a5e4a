/**
 * @file
 * Graph-workload allocation-payoff study: does BHT allocation pay off
 * on hard branches?
 *
 * The paper's Figure 3 shows branch allocation recovering most of the
 * interference-free headroom on control-dominated programs, where
 * mispredictions are largely an *aliasing* artifact.  The graph
 * traversal kernels invert that premise: their branches are driven by
 * shared data structures, so a tunable share of their mispredictions
 * is *inherent* -- no BHT assignment can predict a weight comparison
 * against near-uniform edge weights.  This bench quantifies the
 * boundary: per-branch history entropy (measured during profiling)
 * bins every static branch into predictability classes, and the table
 * reports the baseline-vs-allocated misprediction and
 * destructive-aliasing deltas per class.
 *
 * Expected shape: near-total destructive-aliasing elimination in
 * every bin (allocation does its job), but the *payoff* -- relative
 * miss-rate reduction -- concentrates in the low-entropy bins and
 * decays toward the coin-flip end, where the miss floor is inherent.
 *
 * Workload rows default to the registered graph spec families; pass
 * --benchmarks=graph:...,compress,... to mix in any spec or preset.
 */

#include <string>

#include "bench_common.hh"
#include "util/logging.hh"

int
main(int argc, char **argv)
{
    bwsa::CliOptions cli;
    bwsa::bench::BenchOptions options =
        bwsa::bench::parseBenchOptions(
            argc, argv, "bench_graph_alloc", true,
            {{"bht", "BHT entries of the baseline and allocated "
                     "PAg lanes (default 256)"}},
            &cli);
    const std::uint64_t bht = cli.getUint("bht", 256);
    if (bht == 0)
        bwsa_fatal("--bht must be >= 1");

    bwsa::bench::GraphAllocTables tables =
        bwsa::bench::buildGraphAllocTables(options, bht);
    bwsa::bench::emitTable(std::string("graph allocation summary (bht=")
                               .append(std::to_string(bht))
                               .append(")"),
                           tables.summary, options);
    bwsa::bench::emitTable("graph allocation payoff vs. predictability",
                           tables.payoff, options);
    if (tables.has_telemetry) {
        bwsa::bench::emitTable("branch telemetry: hot branches",
                               tables.hot_branches, options);
        bwsa::bench::emitTable("branch telemetry: hard branches",
                               tables.hard_branches, options);
        bwsa::bench::emitTable("branch telemetry: victim branches",
                               tables.victim_branches, options);
    }
    return bwsa::bench::finishBench(options);
}
