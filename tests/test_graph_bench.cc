/**
 * @file
 * End-to-end checks of the graph allocation-payoff study
 * (buildGraphAllocTables): the ISSUE acceptance criteria -- at least
 * three populated predictability bins, strictly larger payoff in the
 * easy bin than in the hardest populated bin, per-bin counters that
 * reconcile with the "all" row -- plus determinism of the rendered
 * tables across thread counts and shard counts.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench_common.hh"

using namespace bwsa;
using namespace bwsa::bench;

namespace
{

constexpr std::uint64_t kBht = 256;

BenchOptions
graphOptions(unsigned threads = 1)
{
    BenchOptions options;
    options.scale = 0.3;
    options.benchmarks = {"graph:bfs:powerlaw"};
    options.threads = threads;
    return options;
}

/** The per-bin rows of one benchmark (excluding the "all" row). */
std::vector<GraphAllocBinRow>
binRowsOf(const GraphAllocTables &tables, const std::string &benchmark)
{
    std::vector<GraphAllocBinRow> rows;
    for (const GraphAllocBinRow &row : tables.bins)
        if (row.benchmark == benchmark && row.label != "all")
            rows.push_back(row);
    return rows;
}

const GraphAllocBinRow *
allRowOf(const GraphAllocTables &tables, const std::string &benchmark)
{
    for (const GraphAllocBinRow &row : tables.bins)
        if (row.benchmark == benchmark && row.label == "all")
            return &row;
    return nullptr;
}

} // namespace

TEST(GraphAllocBench, EasyBinPaysOffMoreThanHardBin)
{
    // The headline claim of the study on the default power-law BFS
    // preset: allocation recovers aliasing losses, so its payoff
    // concentrates where the miss floor is aliasing (easy bins) and
    // decays where the floor is inherent (hard bins).
    GraphAllocTables tables =
        buildGraphAllocTables(graphOptions(), kBht);
    std::vector<GraphAllocBinRow> rows =
        binRowsOf(tables, "graph:bfs:powerlaw");
    ASSERT_FALSE(rows.empty());

    std::vector<const GraphAllocBinRow *> populated;
    for (const GraphAllocBinRow &row : rows)
        if (row.stats.executed > 0)
            populated.push_back(&row);

    // Acceptance: >= 3 predictability bins populated.
    ASSERT_GE(populated.size(), 3u);

    // Acceptance: strictly larger payoff in the easiest populated bin
    // than in the hardest populated bin.
    const GraphAllocBinRow *easy = populated.front();
    const GraphAllocBinRow *hard = populated.back();
    EXPECT_LT(easy->bin, hard->bin);
    EXPECT_GT(easy->stats.payoffPercent(),
              hard->stats.payoffPercent());

    // Allocation eliminates nearly all destructive aliasing in every
    // populated bin -- the payoff difference is the miss *floor*, not
    // a failure to assign entries.
    for (const GraphAllocBinRow *row : populated)
        if (row->stats.base_victims > 0)
            EXPECT_GT(row->stats.victimsEliminatedPercent(), 50.0)
                << row->label;
}

TEST(GraphAllocBench, BinsReconcileWithTheAllRow)
{
    GraphAllocTables tables =
        buildGraphAllocTables(graphOptions(), kBht);
    const GraphAllocBinRow *all =
        allRowOf(tables, "graph:bfs:powerlaw");
    ASSERT_NE(all, nullptr);

    obs::PredictabilityBinStats sum;
    for (const GraphAllocBinRow &row :
         binRowsOf(tables, "graph:bfs:powerlaw"))
        sum.merge(row.stats);
    EXPECT_EQ(sum.branches, all->stats.branches);
    EXPECT_EQ(sum.executed, all->stats.executed);
    EXPECT_EQ(sum.base_miss, all->stats.base_miss);
    EXPECT_EQ(sum.alloc_miss, all->stats.alloc_miss);
    EXPECT_EQ(sum.base_victims, all->stats.base_victims);
    EXPECT_EQ(sum.alloc_victims, all->stats.alloc_victims);

    // Full-coverage profiling: every simulated execution is binned.
    EXPECT_GT(all->stats.executed, 0u);
    EXPECT_GT(all->stats.branches, 0u);
}

TEST(GraphAllocBench, TablesIdenticalAcrossThreadsAndShards)
{
    BenchOptions serial = graphOptions(1);
    serial.benchmarks = {"graph:bfs:powerlaw", "graph:bfs:grid"};
    GraphAllocTables reference =
        buildGraphAllocTables(serial, kBht);

    BenchOptions parallel = serial;
    parallel.threads = 4;
    parallel.shards = 3;
    GraphAllocTables sharded =
        buildGraphAllocTables(parallel, kBht);
    EXPECT_EQ(sharded.payoff.render(), reference.payoff.render());
    EXPECT_EQ(sharded.summary.render(), reference.summary.render());
}

TEST(GraphAllocBench, MixedSyntheticRowsWork)
{
    // --benchmarks may mix graph specs with synthetic presets; the
    // binning machinery is workload-agnostic.
    BenchOptions options = graphOptions();
    options.scale = 0.1;
    options.benchmarks = {"graph:cc:powerlaw", "compress"};
    GraphAllocTables tables = buildGraphAllocTables(options, kBht);
    EXPECT_NE(allRowOf(tables, "graph:cc:powerlaw"), nullptr);
    EXPECT_NE(allRowOf(tables, "compress"), nullptr);
    const std::string rendered = tables.payoff.render();
    EXPECT_NE(rendered.find("compress"), std::string::npos);
}
