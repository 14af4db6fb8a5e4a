/**
 * @file
 * Tests for the extension components: the agree predictor, the
 * static-filter predictor (Section 5.2 ISA option), the pipeline's
 * static-filter spec, the allocator share-policy knob, and the
 * misprediction clustering analysis (Section 6 future work).
 */

#include <gtest/gtest.h>

#include "test_helpers.hh"

#include "core/pipeline.hh"
#include "obs/metrics.hh"
#include "obs/phase_detect.hh"
#include "predict/factory.hh"
#include "reference/agree.hh"
#include "reference/bpred_sim.hh"
#include "reference/make_predictor.hh"
#include "reference/static_filter.hh"
#include "reference/static_pred.hh"
#include "sim/batched_replay.hh"
#include "sim/cluster_analysis.hh"
#include "trace/trace.hh"
#include "util/random.hh"
#include "workload/builder.hh"
#include "workload/executor.hh"

using namespace bwsa;

namespace
{

double
missRate(Predictor &p,
         const std::vector<std::pair<BranchPc, bool>> &stream)
{
    std::uint64_t miss = 0;
    for (auto [pc, taken] : stream) {
        miss += (p.predict(pc) != taken);
        p.update(pc, taken);
    }
    return static_cast<double>(miss) /
           static_cast<double>(stream.size());
}

PredictorSpec
alwaysTakenSpec()
{
    PredictorSpec spec;
    spec.kind = PredictorKind::AlwaysTaken;
    return spec;
}

} // namespace

// ------------------------------------------------------------------ agree

TEST(Agree, LearnsBiasQuickly)
{
    AgreePredictor p(12);
    std::vector<std::pair<BranchPc, bool>> stream;
    for (int i = 0; i < 2000; ++i)
        stream.emplace_back(0x400000, true);
    EXPECT_LT(missRate(p, stream), 0.01);
    EXPECT_EQ(p.biasedBranches(), 1u);
}

TEST(Agree, OppositeBiasesDoNotDestructivelyInterfere)
{
    // Two branches with opposite strong biases that would slaughter a
    // shared taken/not-taken counter merely *agree* with their
    // respective bias bits -- positive interference.
    Pcg32 rng(3);
    std::vector<std::pair<BranchPc, bool>> stream;
    for (int i = 0; i < 6000; ++i) {
        stream.emplace_back(0x400000, rng.nextBool(0.98));
        stream.emplace_back(0x400008, rng.nextBool(0.02));
    }
    AgreePredictor agree(10);
    double agree_rate = missRate(agree, stream);
    EXPECT_LT(agree_rate, 0.06); // ~2% intrinsic noise per branch
}

TEST(Agree, ResetClearsBiasBits)
{
    AgreePredictor p(8);
    p.update(0x100, false);
    EXPECT_EQ(p.biasedBranches(), 1u);
    p.reset();
    EXPECT_EQ(p.biasedBranches(), 0u);
    // After reset the unknown-branch default (taken) applies again.
    EXPECT_TRUE(p.predict(0x100));
}

// ---------------------------------------------------------- static filter

TEST(StaticFilter, RoutesBiasedBranchesStatically)
{
    auto inner = std::make_unique<AlwaysNotTakenPredictor>();
    StaticFilterPredictor p({{0x100, true}}, std::move(inner));

    // 0x100 is static-taken regardless of the inner predictor.
    EXPECT_TRUE(p.predict(0x100));
    // Unlisted branches use the inner predictor.
    EXPECT_FALSE(p.predict(0x200));
    EXPECT_EQ(p.staticCount(), 1u);

    p.update(0x100, true);
    p.update(0x200, false);
    EXPECT_EQ(p.staticInstances(), 1u);
}

TEST(StaticFilter, KeepsBiasedNoiseOutOfDynamicTables)
{
    // One mixed branch with a learnable alternation plus a 99%-taken
    // branch aliased onto the same GAg history.  Filtering the biased
    // branch statically protects the global history.
    Pcg32 rng(5);
    std::vector<std::pair<BranchPc, bool>> stream;
    bool alt = false;
    for (int i = 0; i < 6000; ++i) {
        alt = !alt;
        stream.emplace_back(0x400000, alt);
        std::uint32_t reps = 1 + rng.nextBounded(2);
        for (std::uint32_t r = 0; r < reps; ++r)
            stream.emplace_back(0x400008, rng.nextBool(0.97));
    }

    PredictorSpec gag;
    gag.kind = PredictorKind::GAg;
    gag.history_bits = 10;
    PredictorPtr plain = makePredictor(gag);
    StaticFilterPredictor filtered({{0x400008, true}},
                                   makePredictor(gag));

    double plain_rate = missRate(*plain, stream);
    double filtered_rate = missRate(filtered, stream);
    EXPECT_LT(filtered_rate, plain_rate);
}

TEST(StaticFilterFactory, BuildsFromSpec)
{
    PredictorSpec spec = paperBaselineSpec();
    spec.kind = PredictorKind::StaticFilteredPAg;
    spec.static_directions = {{0x100, true}, {0x200, false}};
    PredictorPtr p = makePredictor(spec);
    EXPECT_TRUE(p->predict(0x100));
    EXPECT_FALSE(p->predict(0x200));
}

TEST(Pipeline, StaticFilterSpecCoversClassifiedBranches)
{
    Program program;
    program.addProcedure(
        "main",
        fixedLoopOf(
            400, seqOf(ifOf(BranchBehavior::biased(1.0), compute(2)),
                       ifOf(BranchBehavior::biased(0.0), compute(2)),
                       ifOf(BranchBehavior::periodic(0b01u, 2),
                            compute(2)))));
    program.finalize();
    WorkloadTraceSource source(program, ExecutorConfig{});

    PipelineConfig config;
    config.allocation.use_classification = true;
    AllocationPipeline pipeline(config);
    testhelpers::profileRun(pipeline, source);

    PredictorSpec spec = pipeline.staticFilterSpec(64);
    EXPECT_EQ(spec.kind, PredictorKind::StaticFilteredPAg);
    // The always-taken and never-taken guards classify; the periodic
    // one does not.  (Ids 0,1,2 are the ifs; id 3 the backedge, which
    // is also >99% taken at 400 trips.)
    EXPECT_GE(spec.static_directions.size(), 2u);
    BranchPc taken_pc = program.branchInfo(0).pc;
    BranchPc not_taken_pc = program.branchInfo(1).pc;
    BranchPc mixed_pc = program.branchInfo(2).pc;
    // If semantics: guard taken means body skipped, so the biased(1.0)
    // behaviour resolves taken -> static direction true.
    EXPECT_TRUE(spec.static_directions.at(taken_pc));
    EXPECT_FALSE(spec.static_directions.at(not_taken_pc));
    EXPECT_EQ(spec.static_directions.count(mixed_pc), 0u);
}

TEST(PipelineDeath, StaticFilterSpecNeedsClassification)
{
    Program program;
    program.addProcedure(
        "main", fixedLoopOf(50, ifOf(BranchBehavior::biased(0.5),
                                     compute(1))));
    program.finalize();
    WorkloadTraceSource source(program, ExecutorConfig{});

    AllocationPipeline pipeline; // classification off by default
    testhelpers::profileRun(pipeline, source);
    EXPECT_EXIT(pipeline.staticFilterSpec(64),
                ::testing::ExitedWithCode(1),
                "requires classification");
}

// ------------------------------------------------------------ share policy

TEST(SharePolicy, BothPoliciesProduceValidAssignments)
{
    ConflictGraph g;
    Pcg32 rng(7);
    for (int i = 0; i < 40; ++i) {
        NodeId id = g.addOrGetNode(0x1000 + 8 * i);
        for (int e = 0; e < 10 * (i + 1); ++e)
            testhelpers::recordExecution(g, id, true);
    }
    for (NodeId a = 0; a < 40; ++a)
        for (NodeId b = a + 1; b < 40; ++b)
            if (rng.nextBool(0.5))
                g.addInterleave(a, b, 100 + rng.nextBounded(1000));

    for (SharePolicy policy : {SharePolicy::FewestConflicts,
                               SharePolicy::LowestDegree}) {
        AllocationConfig config;
        config.share_policy = policy;
        AllocationResult result = allocateBranches(g, 8, config);
        EXPECT_EQ(result.assignment.size(), 40u);
        for (auto [pc, entry] : result.assignment)
            EXPECT_LT(entry, 8u);
        EXPECT_GT(result.shared_nodes, 0u); // 8 colors can't suffice
    }
}

// ------------------------------------------------------- cluster analysis

TEST(ClusterAnalysis, CountsMissesExactly)
{
    // Alternating branch against always-taken: every second branch
    // misses; with burst_gap 8 the whole run fuses into one burst.
    MemoryTrace trace;
    for (int i = 0; i < 1000; ++i)
        trace.onBranch({0x100, 5ull * (i + 1), i % 2 == 0});

    const PredictorSpec p = alwaysTakenSpec();
    ClusterConfig config;
    ClusterReport report =
        analyzeMispredictionClustering(trace, p, config);
    EXPECT_EQ(report.branches, 1000u);
    EXPECT_EQ(report.misses, 500u);
    EXPECT_EQ(report.bursts, 1u);
    EXPECT_EQ(report.burst_misses, 500u);
    EXPECT_DOUBLE_EQ(report.burstMissFraction(), 1.0);
}

TEST(ClusterAnalysis, IsolatedMissesFormNoBursts)
{
    // A miss every 100 branches, far beyond the burst gap.
    MemoryTrace trace;
    for (int i = 0; i < 5000; ++i)
        trace.onBranch({0x100, 5ull * (i + 1), i % 100 != 0});
    const PredictorSpec p = alwaysTakenSpec();
    ClusterReport report = analyzeMispredictionClustering(trace, p);
    EXPECT_EQ(report.misses, 50u);
    EXPECT_EQ(report.bursts, 0u);
    EXPECT_DOUBLE_EQ(report.burstMissFraction(), 0.0);
}

TEST(ClusterAnalysis, DetectsWorkingSetShift)
{
    // Phase 1 cycles branches 0..19; phase 2 cycles a disjoint set.
    MemoryTrace trace;
    std::uint64_t ts = 0;
    for (int i = 0; i < 4100; ++i)
        trace.onBranch({0x1000 + 8ull * (i % 20), ts += 5, true});
    for (int i = 0; i < 4100; ++i)
        trace.onBranch({0x9000 + 8ull * (i % 20), ts += 5, true});

    const PredictorSpec p = alwaysTakenSpec();
    ClusterConfig config;
    config.interval = 1024;
    ClusterReport report =
        analyzeMispredictionClustering(trace, p, config);
    EXPECT_GE(report.shifts, 1u);
    EXPECT_LE(report.shifts, 2u);
}

TEST(ClusterAnalysis, ShiftsAreTheDetectedPhaseBoundaries)
{
    // Five phases over disjoint branch sets of different sizes and
    // lengths: the shift count must be exactly the boundary count of
    // the phase engine over the same interval and detector config.
    MemoryTrace trace;
    std::uint64_t ts = 0;
    const int lengths[] = {6000, 3500, 8000, 2600, 5000};
    const int widths[] = {20, 35, 12, 40, 25};
    for (int phase = 0; phase < 5; ++phase)
        for (int i = 0; i < lengths[phase]; ++i)
            trace.onBranch({0x10000ull * (phase + 1) +
                                8ull * (i % widths[phase]),
                            ts += 3, i % 3 != 0});

    ClusterConfig config;
    config.interval = 2048;
    config.phases.threshold = 0.5;
    config.phases.hysteresis = 0.1;
    config.phases.min_windows = 3;
    ClusterReport report =
        analyzeMispredictionClustering(trace, paperBaselineSpec(), config);

    obs::PhaseAccumulator windows(config.interval);
    for (const BranchRecord &record : trace.records())
        windows.sample(record.pc, record.timestamp);
    windows.finish();
    obs::PhaseTimeline timeline = obs::detectPhases(windows, config.phases);
    ASSERT_EQ(timeline.phases.size(), 5u);
    EXPECT_EQ(report.shifts, timeline.phases.size() - 1);
    // Every boundary opens a full aftermath (phases outlast it).
    EXPECT_EQ(report.near_shift.total(), 4u * config.aftermath);
}

TEST(ClusterAnalysis, SteadyPhaseHasNoShifts)
{
    MemoryTrace trace;
    std::uint64_t ts = 0;
    for (int i = 0; i < 20000; ++i)
        trace.onBranch({0x1000 + 8ull * (i % 50), ts += 5, true});
    const PredictorSpec p = alwaysTakenSpec();
    ClusterReport report = analyzeMispredictionClustering(trace, p);
    EXPECT_EQ(report.shifts, 0u);
}

TEST(ClusterAnalysis, MissesMatchReferenceReplay)
{
    // The analysis reads each record's miss off its batched lane; the
    // totals must equal the reference predictor object's.
    Pcg32 rng(17);
    MemoryTrace trace;
    for (int i = 0; i < 6000; ++i) {
        BranchPc pc = 0x400000 + 8ull * rng.nextBounded(64);
        trace.onBranch({pc, 5ull * (i + 1), rng.nextBool(0.7)});
    }
    PredictorPtr reference = makePredictor(paperBaselineSpec());
    PredictionStats want = simulatePredictor(trace, *reference);
    ClusterReport report =
        analyzeMispredictionClustering(trace, paperBaselineSpec());
    EXPECT_EQ(report.branches, want.mispredicts.total());
    EXPECT_EQ(report.misses, want.mispredicts.events());
    EXPECT_EQ(report.near_shift.events() + report.steady.events(),
              report.misses);
}

TEST(ClusterAnalysis, MissesMatchBatchedReplay)
{
    // The analysis folds its lane's miss bits block by block; a trace
    // that ends in a partial block must still count every record, and
    // the analysis counts as one batched replay run.
    Pcg32 rng(29);
    MemoryTrace trace;
    const std::size_t n = 2 * BatchedReplayer::block_records + 1234;
    for (std::size_t i = 0; i < n; ++i) {
        BranchPc pc = 0x400000 + 8ull * rng.nextBounded(200);
        trace.onBranch({pc, 5ull * (i + 1), rng.nextBool(0.7)});
    }
    const std::vector<PredictionStats> plain =
        replayBatched(trace, {paperBaselineSpec()});

    obs::MetricsRegistry &registry = obs::MetricsRegistry::global();
    const obs::MetricsSnapshot before = registry.snapshot();
    ClusterReport report =
        analyzeMispredictionClustering(trace, paperBaselineSpec());
    const obs::MetricsSnapshot after = registry.snapshot();

    EXPECT_EQ(report.branches, n);
    EXPECT_EQ(report.misses, plain[0].mispredicts.events());
    EXPECT_EQ(report.near_shift.total() + report.steady.total(), n);
    EXPECT_EQ(after.counterValue("sim.runs"),
              before.counterValue("sim.runs") + 1);
    EXPECT_EQ(after.counterValue("sim.predictor_runs"),
              before.counterValue("sim.predictor_runs") + 1);
    EXPECT_EQ(after.counterValue("sim.branches"),
              before.counterValue("sim.branches") + n);
}

TEST(ClusterAnalysisDeath, ZeroWindowPanics)
{
    MemoryTrace trace;
    trace.onBranch({0x100, 5, true});
    const PredictorSpec p = alwaysTakenSpec();
    ClusterConfig config;
    config.interval = 0;
    EXPECT_DEATH(analyzeMispredictionClustering(trace, p, config),
                 "interval");
}
