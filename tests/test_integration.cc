/**
 * @file
 * Integration tests: the paper's full experimental flow on a small
 * synthetic benchmark -- profile, analyze, allocate, and verify the
 * predictor-accuracy ordering the paper reports, plus end-to-end
 * determinism and the trace-file path.
 */

#include <filesystem>

#include <gtest/gtest.h>

#include "core/pipeline.hh"
#include "core/working_set.hh"
#include "obs/phase_tracer.hh"
#include "predict/factory.hh"
#include "reference/bpred_sim.hh"
#include "reference/make_predictor.hh"
#include "store/block_trace.hh"
#include "test_helpers.hh"
#include "workload/presets.hh"

using namespace bwsa;

namespace
{

/** One shared small-scale workload so the suite stays fast. */
const Workload &
testWorkload()
{
    static const Workload w = makeWorkload("m88ksim", "", 0.25);
    return w;
}

} // namespace

TEST(Integration, PaperOrderingHoldsOnSmallBenchmark)
{
    WorkloadTraceSource source = testWorkload().source();

    PipelineConfig config;
    AllocationPipeline pipeline(config);
    testhelpers::profileRun(pipeline, source);

    PipelineConfig cls_config;
    cls_config.allocation.use_classification = true;
    AllocationPipeline cls_pipeline(cls_config);
    testhelpers::profileRun(cls_pipeline, source);

    PredictorPtr base = makePredictor(paperBaselineSpec());
    PredictorPtr ideal = makePredictor(interferenceFreeSpec());
    PredictorPtr alloc1024 =
        makePredictor(pipeline.predictorSpec(1024));
    PredictorPtr alloc16 = makePredictor(pipeline.predictorSpec(16));
    PredictorPtr cls1024 =
        makePredictor(cls_pipeline.predictorSpec(1024));

    std::vector<Predictor *> all{base.get(), ideal.get(),
                                 alloc1024.get(), alloc16.get(),
                                 cls1024.get()};
    std::vector<PredictionStats> rs = comparePredictors(source, all);
    double r_base = rs[0].mispredictPercent();
    double r_ideal = rs[1].mispredictPercent();
    double r_alloc = rs[2].mispredictPercent();
    double r_alloc16 = rs[3].mispredictPercent();
    double r_cls = rs[4].mispredictPercent();

    // The paper's qualitative orderings (Figures 3 and 4):
    //  - interference-free is the floor;
    //  - allocation at 1024 entries lands between baseline and floor;
    //  - a 16-entry table is far worse than the baseline;
    //  - classification at 1024 also beats the baseline.
    EXPECT_LE(r_ideal, r_base + 1e-9);
    EXPECT_LE(r_alloc, r_base + 0.05);
    EXPECT_GE(r_alloc, r_ideal - 0.05);
    EXPECT_GT(r_alloc16, r_base + 1.0);
    EXPECT_LE(r_cls, r_base + 0.05);

    // Sanity: a realistic absolute range (2-25% misprediction).
    EXPECT_GT(r_base, 1.0);
    EXPECT_LT(r_base, 25.0);
}

TEST(Integration, RequiredSizesShrinkWithClassification)
{
    WorkloadTraceSource source = testWorkload().source();

    PipelineConfig plain_config;
    AllocationPipeline plain(plain_config);
    testhelpers::profileRun(plain, source);
    RequiredSizeResult t3 = plain.requiredSize(1024);

    PipelineConfig cls_config;
    cls_config.allocation.use_classification = true;
    AllocationPipeline cls(cls_config);
    testhelpers::profileRun(cls, source);
    RequiredSizeResult t4 = cls.requiredSize(1024);

    ASSERT_TRUE(t3.achieved);
    ASSERT_TRUE(t4.achieved);
    // Table 3 vs Table 4: classification cuts the requirement, and
    // both sit far below the conventional 1024 entries.
    EXPECT_LT(t4.required_entries, t3.required_entries);
    EXPECT_LT(t3.required_entries, 1024u);
}

TEST(Integration, WorkingSetsAreSmallRelativeToProgram)
{
    WorkloadTraceSource source = testWorkload().source();
    ConflictGraph graph = profileTrace(source);
    ConflictGraph pruned = graph.pruned(100);

    WorkingSetResult sets = findWorkingSets(
        pruned, WorkingSetDefinition::SeededClique);
    WorkingSetStats stats = computeWorkingSetStats(pruned, sets);

    // Section 4.2's headline: working sets are much smaller than the
    // static branch population.
    EXPECT_GT(stats.total_sets, 10u);
    EXPECT_LT(stats.avg_dynamic_size,
              0.5 * static_cast<double>(graph.nodeCount()));
    EXPECT_GT(stats.avg_dynamic_size, 5.0);
}

TEST(Integration, WholeFlowIsDeterministic)
{
    WorkloadTraceSource source = testWorkload().source();

    auto run_once = [&] {
        PipelineConfig config;
        AllocationPipeline pipeline(config);
        testhelpers::profileRun(pipeline, source);
        RequiredSizeResult req = pipeline.requiredSize(1024);
        PredictorPtr p = makePredictor(pipeline.predictorSpec(128));
        PredictionStats stats = simulatePredictor(source, *p);
        return std::make_tuple(req.required_entries,
                               req.baseline_conflict,
                               stats.mispredicts.events());
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST(Integration, TraceFileRoundTripPreservesAnalysis)
{
    // Writing the trace to disk and re-reading it must produce the
    // identical conflict graph -- the trace file is a faithful
    // substitute for live execution.  Small blocks make the file span
    // many blocks, so the interleave window crosses block boundaries.
    WorkloadTraceSource source = testWorkload().source();
    std::string path = (std::filesystem::temp_directory_path() /
                        "bwsa_integration.trace")
                           .string();
    store::writeBlockTraceFile(path, source, 1024);
    std::unique_ptr<TraceSource> reader = store::openTraceReader(path);
    ASSERT_GT(reader->recordCount(), 8 * 1024u);

    ConflictGraph live = profileTrace(source);
    ConflictGraph from_file = profileTrace(*reader);

    EXPECT_EQ(from_file.nodeCount(), live.nodeCount());
    EXPECT_EQ(from_file.edgeCount(), live.edgeCount());
    EXPECT_EQ(from_file.totalExecutions(), live.totalExecutions());
    for (const auto &[key, count] : live.edges()) {
        auto [a, b] = ConflictGraph::unpackEdge(key);
        NodeId fa = from_file.findNode(live.node(a).pc);
        NodeId fb = from_file.findNode(live.node(b).pc);
        ASSERT_NE(fa, invalid_node);
        ASSERT_NE(fb, invalid_node);
        ASSERT_EQ(from_file.interleaveCount(fa, fb), count);
    }
    std::filesystem::remove(path);
}

TEST(Integration, ProfileInputSensitivity)
{
    // Section 5.2: profiles from different inputs differ; merging
    // them covers both (the cumulative-profile remedy).
    Workload a = makeWorkload("ss", "a", 0.1);
    Workload b = makeWorkload("ss", "b", 0.1);
    WorkloadTraceSource sa = a.source();
    WorkloadTraceSource sb = b.source();

    PipelineConfig config;
    AllocationPipeline pa(config), pb(config), merged(config);
    testhelpers::profileRun(pa, sa);
    testhelpers::profileRun(pb, sb);
    testhelpers::profileRun(merged, sa);
    testhelpers::profileRun(merged, sb);

    EXPECT_NE(pa.graph().totalExecutions(),
              pb.graph().totalExecutions());
    EXPECT_GE(merged.graph().nodeCount(),
              std::max(pa.graph().nodeCount(),
                       pb.graph().nodeCount()));
}

TEST(Integration, InstrumentationDoesNotPerturbResults)
{
    WorkloadTraceSource source = testWorkload().source();

    // The full analysis path, returning everything numeric it decides.
    auto run = [&] {
        PipelineConfig config;
        AllocationPipeline pipeline(config);
        testhelpers::profileRun(pipeline, source);
        RequiredSizeResult req = pipeline.requiredSize(1024);
        PredictorPtr p = makePredictor(pipeline.predictorSpec(128));
        PredictionStats stats = simulatePredictor(source, *p);
        return std::make_tuple(
            pipeline.graph().nodeCount(), pipeline.graph().edgeCount(),
            req.required_entries, req.baseline_conflict,
            stats.mispredicts.events(), stats.mispredicts.total());
    };

    obs::PhaseTracer &tracer = obs::PhaseTracer::global();
    tracer.setEnabled(false);
    auto plain = run();

    tracer.clear();
    tracer.setEnabled(true);
    auto traced = run();
    tracer.setEnabled(false);

    // Tracing was live and recorded spans...
    EXPECT_FALSE(tracer.events().empty());
    // ...and every analysis decision is bit-identical regardless.
    EXPECT_EQ(plain, traced);
    tracer.clear();
}
