/**
 * @file
 * table2_sharded: Table 2 on one long gcc trace read from a mmapped
 * v2 container.
 *
 * The timed region runs the sharded profiler (4 shards, at most nproc
 * threads), prunes the graph and extracts and summarises the working
 * sets.  It exercises shards, merge, stitch, the thread pool and the
 * working-set search, and bypasses replay and colouring.
 */

#include "workloads.hh"

#include <sched.h>

#include <algorithm>
#include <cstdio>

#include "core/working_set.hh"
#include "profile/shard.hh"
#include "store/block_trace.hh"
#include "store/profile_artifact.hh"
#include "trace/trace_stats.hh"

namespace perfbench
{

namespace
{

/** Presets profiled, largest static branch populations first. */
const std::vector<std::string> table2_presets{
    "gcc", "chess", "python", "ss", "plot", "gs"};

/** Trace length multiplier of every trace. */
constexpr double table2_scale = 0.06;

/** Seed-derived inputs in each trace. */
constexpr unsigned table2_inputs = 8;

constexpr unsigned table2_shards = 4;

/** Table 2's conflict-edge threshold. */
constexpr std::uint64_t table2_threshold = 100;

/** CPUs this process may run on (what nproc prints). */
unsigned
usableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return 1;
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

class Table2Sharded : public Workload
{
  public:
    explicit Table2Sharded(WorkloadEnv env)
        : _env(std::move(env)), _outputs(_env.expected)
    {
        _shard_config.shards = table2_shards;
        _shard_config.threads = std::min(table2_shards, usableCpus());
    }

    void
    setup(LayerSums *sums) override
    {
        _traces.clear();
        for (std::size_t i = 0; i < table2_presets.size(); ++i) {
            Trace trace;
            trace.path = _env.work_dir + "/" + table2_presets[i] + ".bwt";
            {
                Span span(sums, "store.write_s");
                writeInputsTrace(trace.path, table2_presets[i],
                                 table2_scale, _env.seed, i,
                                 table2_inputs);
            }
            // Oracle of the invariant checks: record and static branch
            // counts from an independent stats pass.
            Span span(sums, "core.oracle_s");
            auto source = bwsa::store::openTraceReader(trace.path);
            bwsa::TraceStatsCollector stats;
            source->replay(stats);
            trace.records = stats.dynamicBranches();
            trace.static_branches = stats.staticBranches();
            _traces.push_back(std::move(trace));
        }
    }

    double
    runPass(LayerSums *sums) override
    {
        double wall = 0.0;
        for (std::size_t i = 0; i < _traces.size(); ++i)
            wall += profileTrace(i, sums);
        return wall;
    }

    void
    report(obs::JsonValue &raw) override
    {
        double pct_sum = 0.0;
        for (Trace &trace : _traces) {
            auto source = bwsa::store::openTraceReader(trace.path);
            LaneMisses misses = alloc1024Misses(trace.graph, *source);
            checks.record(misses.executed == trace.records);
            pct_sum += 100.0 * static_cast<double>(misses.mispredicted) /
                       static_cast<double>(misses.executed);
        }
        raw["miss_pct_alloc1024"] =
            pct_sum / static_cast<double>(_traces.size());
        raw["outputs"] = _outputs.first();
    }

  private:
    struct Trace
    {
        std::string path;
        std::uint64_t records = 0;
        std::size_t static_branches = 0;
        bwsa::ConflictGraph graph; ///< last pass's unpruned graph
    };

    /** Table 2 for trace @p i; returns the timed region's seconds. */
    double
    profileTrace(std::size_t i, LayerSums *sums)
    {
        Trace &trace = _traces[i];
        const auto start = Clock::now();
        std::unique_ptr<bwsa::TraceSource> source;
        {
            Span span(sums, "store.open_s");
            source = bwsa::store::openTraceReader(trace.path);
        }
        bwsa::ConflictGraph graph;
        bwsa::ShardRunStats shard_stats;
        {
            Span span(sums, "profile.sharded_s");
            shard_stats =
                bwsa::profileTraceSharded(*source, graph, _shard_config);
        }
        bwsa::ConflictGraph pruned;
        {
            Span span(sums, "profile.prune_s");
            pruned = graph.pruned(table2_threshold);
        }
        bwsa::WorkingSetResult sets;
        bwsa::WorkingSetStats ws;
        {
            Span span(sums, "core.ws_extract_s");
            sets = bwsa::findWorkingSets(
                pruned, bwsa::WorkingSetDefinition::SeededClique);
            ws = bwsa::computeWorkingSetStats(pruned, sets);
        }
        const double wall = secondsSince(start);

        addShardStats(sums, shard_stats);
        addCount(sums, "profile.graph_nodes",
                 static_cast<double>(graph.nodeCount()));
        addCount(sums, "profile.graph_edges",
                 static_cast<double>(graph.edgeCount()));
        addCount(sums, "core.working_sets",
                 static_cast<double>(ws.total_sets));

        char row[160];
        std::snprintf(row, sizeof(row),
                      "sets=%zu,avg_static=%.6f,avg_dynamic=%.6f,"
                      "max=%zu,nodes=%zu",
                      ws.total_sets, ws.avg_static_size,
                      ws.avg_dynamic_size, ws.max_size,
                      graph.nodeCount());
        bool ok = graph.totalExecutions() == trace.records &&
                  graph.nodeCount() == trace.static_branches;
        const std::string value =
            std::string(row) + ";graph=" + graphDigest(graph);
        checks.record(_outputs.check(table2_presets[i], value) && ok);
        trace.graph = std::move(graph);
        return wall;
    }

    /** Digest of the canonical artifact bytes of a bare graph. */
    static std::string
    graphDigest(const bwsa::ConflictGraph &graph)
    {
        bwsa::store::ProfileArtifact artifact{{}, {}, graph};
        return digestHex(
            bwsa::store::serializeProfileArtifact(artifact));
    }

    /**
     * Shard-engine figures from ShardRunStats.  The stitch base is
     * the records of segments 2..K, the most a stitch could scan; the
     * pool capacity is threads x engine wall time.
     */
    static void
    addShardStats(LayerSums *sums, const bwsa::ShardRunStats &stats)
    {
        double shard_max = 0.0, shard_sum = 0.0, stitch_base = 0.0;
        double increments =
            static_cast<double>(stats.stitch.pair_increments);
        for (const bwsa::ShardTiming &t : stats.timings) {
            shard_max = std::max(shard_max, t.millis);
            shard_sum += t.millis;
            increments += static_cast<double>(t.increments);
            if (t.index > 0)
                stitch_base += static_cast<double>(t.records);
        }
        addCount(sums, "profile.pair_increments", increments);
        addCount(sums, "profile.shard_max_ms", shard_max);
        addCount(sums, "profile.shard_sum_ms", shard_sum);
        addCount(sums, "profile.merge_ms", stats.merge_millis);
        addCount(sums, "profile.stitch_ms", stats.stitch.millis);
        addCount(sums, "profile.stitch_scanned",
                 static_cast<double>(stats.stitch.records_scanned));
        addCount(sums, "profile.stitch_base", stitch_base);
        addCount(sums, "exec.capacity_ms",
                 stats.threads * stats.total_millis);
    }

    WorkloadEnv _env;
    OutputLog _outputs;
    bwsa::ShardConfig _shard_config;
    std::vector<Trace> _traces;
};

} // namespace

std::unique_ptr<Workload>
makeTable2Sharded(WorkloadEnv env)
{
    return std::make_unique<Table2Sharded>(std::move(env));
}

} // namespace perfbench
