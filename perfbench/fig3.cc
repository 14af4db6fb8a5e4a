/**
 * @file
 * fig3_serial: the Figure 3 cell body for every preset on one thread.
 *
 * Per preset the timed region opens the preset's v2 container, runs
 * the two-pass ProfileSession, colours the graph at 16, 128 and 1024
 * BHT entries and replays the five Figure 3 lanes in one batched pass.
 * It exercises the serial profiler, the colouring and the replay
 * engine, and bypasses shards, stitch and the service.
 */

#include "workloads.hh"

#include <memory>
#include <vector>

#include "core/pipeline.hh"
#include "predict/factory.hh"
#include "sim/batched_replay.hh"
#include "store/block_trace.hh"
#include "store/profile_artifact.hh"
#include "workload/presets.hh"

namespace perfbench
{

namespace
{

/** Trace length multiplier of every preset. */
constexpr double fig3_scale = 0.08;

/** Seed-derived inputs in each preset's trace. */
constexpr unsigned fig3_inputs = 8;

/** Figure 3's allocated table sizes; lanes 1-3 of the replay. */
constexpr std::uint64_t table_sizes[] = {16, 128, 1024};

/** Index of the alloc-1024 lane among the five replayed lanes. */
constexpr std::size_t alloc1024_lane = 3;

class Fig3Serial : public Workload
{
  public:
    explicit Fig3Serial(WorkloadEnv env)
        : _env(std::move(env)), _outputs(_env.expected),
          _presets(bwsa::presetNames())
    {}

    void
    setup(LayerSums *sums) override
    {
        _paths.clear();
        _oracle.clear();
        for (std::size_t i = 0; i < _presets.size(); ++i) {
            std::string path =
                _env.work_dir + "/" + _presets[i] + ".bwt";
            {
                Span span(sums, "store.write_s");
                writeInputsTrace(path, _presets[i], fig3_scale, _env.seed,
                                 i, fig3_inputs);
            }
            // Oracle of the invariant checks: an independent stats
            // pass and frequency selection over the written container.
            Span span(sums, "core.oracle_s");
            auto source = bwsa::store::openTraceReader(path);
            bwsa::TraceStatsCollector stats;
            source->replay(stats);
            bwsa::FrequencySelection selection = bwsa::selectByFrequency(
                stats, bwsa::PipelineConfig().coverage);
            _oracle.push_back({stats.dynamicBranches(),
                               selection.analyzed_dynamic});
            _paths.push_back(std::move(path));
        }
    }

    double
    runPass(LayerSums *sums) override
    {
        double wall = 0.0;
        _alloc1024_pct.assign(_presets.size(), 0.0);
        for (std::size_t i = 0; i < _presets.size(); ++i) {
            const auto start = Clock::now();

            std::unique_ptr<bwsa::TraceSource> source;
            {
                Span span(sums, "store.open_s");
                source = bwsa::store::openTraceReader(_paths[i]);
            }
            bwsa::AllocationPipeline pipeline;
            auto session =
                std::make_unique<bwsa::ProfileSession>(pipeline);
            {
                Span span(sums, "trace.stats_s");
                session->addStats(*source);
                session->commit();
            }
            {
                Span span(sums, "profile.interleave_s");
                session->addInterleave(*source);
            }
            {
                Span span(sums, "profile.finish_s");
                session->finish();
                session.reset();
            }
            std::vector<bwsa::AllocationResult> allocations;
            {
                Span span(sums, "core.allocate_s");
                for (std::uint64_t entries : table_sizes)
                    allocations.push_back(pipeline.allocate(entries));
            }
            const std::size_t shared_nodes = allocations[0].shared_nodes;
            std::vector<bwsa::PredictorSpec> specs{
                bwsa::paperBaselineSpec()};
            for (bwsa::AllocationResult &a : allocations)
                specs.push_back(bwsa::allocatedSpec(
                    std::move(a.assignment), a.table_size));
            specs.push_back(bwsa::interferenceFreeSpec());
            bwsa::BatchedReplayer replayer;
            for (const bwsa::PredictorSpec &spec : specs)
                replayer.addLane(spec);
            {
                Span span(sums, "sim.replay_s");
                replayer.replay(*source);
            }

            wall += secondsSince(start);
            checkCell(i, pipeline, replayer, shared_nodes, sums);
        }
        return wall;
    }

    void
    report(obs::JsonValue &raw) override
    {
        double sum = 0.0;
        for (double pct : _alloc1024_pct)
            sum += pct;
        raw["miss_pct_alloc1024"] =
            sum / static_cast<double>(_alloc1024_pct.size());
        raw["outputs"] = _outputs.first();
    }

  private:
    struct Oracle
    {
        std::uint64_t records = 0;  ///< dynamic branches in the trace
        std::uint64_t filtered = 0; ///< records the selection keeps
    };

    void
    checkCell(std::size_t i, const bwsa::AllocationPipeline &pipeline,
              const bwsa::BatchedReplayer &replayer,
              std::size_t shared_nodes, LayerSums *sums)
    {
        const Oracle &oracle = _oracle[i];
        bool ok = pipeline.graph().totalExecutions() == oracle.filtered;
        std::string row = "lanes=";
        for (std::size_t lane = 0; lane < replayer.laneCount(); ++lane) {
            const bwsa::RatioStat &m = replayer.stats(lane).mispredicts;
            ok = ok && m.total() == oracle.records;
            row += std::to_string(m.events()) + "/" +
                   std::to_string(m.total()) + ",";
        }
        _alloc1024_pct[i] =
            replayer.stats(alloc1024_lane).mispredictPercent();

        const bwsa::ConflictGraph &graph = pipeline.graph();
        bwsa::store::ProfileArtifact artifact{
            pipeline.lastStats(), pipeline.lastSelection(), graph};
        row += ";graph=" + digestHex(
                               bwsa::store::serializeProfileArtifact(
                                   artifact));
        checks.record(_outputs.check(_presets[i], row) && ok);

        if (!sums)
            return;
        double increments = 0.0;
        for (const auto &edge : graph.edges())
            increments += static_cast<double>(edge.second);
        addCount(sums, "profile.pair_increments", increments);
        addCount(sums, "profile.graph_nodes",
                 static_cast<double>(graph.nodeCount()));
        addCount(sums, "profile.graph_edges",
                 static_cast<double>(graph.edgeCount()));
        addCount(sums, "profile.filtered_records",
                 static_cast<double>(oracle.filtered));
        addCount(sums, "core.shared_nodes",
                 static_cast<double>(shared_nodes));
        addCount(sums, "sim.lane_records",
                 static_cast<double>(oracle.records *
                                     replayer.laneCount()));
    }

    WorkloadEnv _env;
    OutputLog _outputs;
    std::vector<std::string> _presets;
    std::vector<std::string> _paths;
    std::vector<Oracle> _oracle;
    std::vector<double> _alloc1024_pct;
};

} // namespace

std::unique_ptr<Workload>
makeFig3Serial(WorkloadEnv env)
{
    return std::make_unique<Fig3Serial>(std::move(env));
}

} // namespace perfbench
