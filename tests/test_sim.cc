/**
 * @file
 * Tests for the trace-driven prediction simulator.
 */

#include <gtest/gtest.h>

#include "predict/factory.hh"
#include "reference/bpred_sim.hh"
#include "reference/make_predictor.hh"
#include "reference/static_pred.hh"
#include "trace/trace.hh"
#include "util/random.hh"

using namespace bwsa;

namespace
{

MemoryTrace
biasedTrace(std::size_t n, double p_taken, std::uint64_t seed)
{
    Pcg32 rng(seed);
    MemoryTrace trace;
    for (std::size_t i = 0; i < n; ++i)
        trace.onBranch({0x400000 + 8ull * rng.nextBounded(16),
                        5 * (i + 1), rng.nextBool(p_taken)});
    return trace;
}

} // namespace

TEST(PredictionSim, CountsExactMisses)
{
    // Against an always-taken predictor the misprediction count is
    // exactly the number of not-taken branches.
    MemoryTrace trace;
    int not_taken = 0;
    for (int i = 0; i < 100; ++i) {
        bool taken = (i % 3 != 0);
        not_taken += !taken;
        trace.onBranch({0x100, 5ull * (i + 1), taken});
    }
    AlwaysTakenPredictor p;
    PredictionStats stats = simulatePredictor(trace, p);
    EXPECT_EQ(stats.mispredicts.events(),
              static_cast<std::uint64_t>(not_taken));
    EXPECT_EQ(stats.mispredicts.total(), 100u);
    EXPECT_EQ(stats.predictor_name, "always-taken");
    EXPECT_NEAR(stats.mispredictPercent() + stats.accuracyPercent(),
                100.0, 1e-9);
}

TEST(PredictionSim, PerBranchStatsPartitionTotals)
{
    MemoryTrace trace = biasedTrace(5000, 0.7, 3);
    PredictorPtr p = makePredictor(paperBaselineSpec());
    PredictionStats stats = simulatePredictor(trace, *p, true);

    std::uint64_t events = 0, total = 0;
    for (const auto &[pc, ratio] : stats.per_branch) {
        events += ratio.events();
        total += ratio.total();
    }
    EXPECT_EQ(events, stats.mispredicts.events());
    EXPECT_EQ(total, stats.mispredicts.total());
    EXPECT_EQ(stats.per_branch.size(), 16u);
}

TEST(PredictionSim, CompareMatchesIndividualRuns)
{
    MemoryTrace trace = biasedTrace(8000, 0.6, 7);

    PredictorPtr a1 = makePredictor(paperBaselineSpec());
    PredictorPtr b1 = makePredictor(interferenceFreeSpec());
    PredictionStats ra = simulatePredictor(trace, *a1);
    PredictionStats rb = simulatePredictor(trace, *b1);

    PredictorPtr a2 = makePredictor(paperBaselineSpec());
    PredictorPtr b2 = makePredictor(interferenceFreeSpec());
    std::vector<Predictor *> both{a2.get(), b2.get()};
    std::vector<PredictionStats> rs = comparePredictors(trace, both);

    ASSERT_EQ(rs.size(), 2u);
    EXPECT_EQ(rs[0].mispredicts.events(), ra.mispredicts.events());
    EXPECT_EQ(rs[1].mispredicts.events(), rb.mispredicts.events());
    EXPECT_EQ(rs[0].mispredicts.total(), trace.size());
}

TEST(PredictionSim, EmptyTraceYieldsZeroes)
{
    MemoryTrace empty;
    PredictorPtr p = makePredictor(paperBaselineSpec());
    PredictionStats stats = simulatePredictor(empty, *p);
    EXPECT_EQ(stats.mispredicts.total(), 0u);
    EXPECT_DOUBLE_EQ(stats.mispredictPercent(), 0.0);
}
