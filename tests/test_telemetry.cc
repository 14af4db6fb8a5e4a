/**
 * @file
 * Per-branch telemetry tests: the entropy estimator's edge cases, the
 * shard-merge algebra (any segmentation folds to the serial map,
 * bit-identically), and the reconciliation invariants between
 * per-branch counts and the aggregate counters the run report
 * cross-checks.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "obs/branch_telemetry.hh"
#include "predict/factory.hh"
#include "profile/shard.hh"
#include "reference/bpred_sim.hh"
#include "reference/make_predictor.hh"
#include "reference/twolevel.hh"
#include "trace/trace.hh"
#include "workload/presets.hh"

using namespace bwsa;
using obs::BranchTelemetry;
using obs::BranchTelemetryMap;

namespace
{

/** Record one branch's direction sequence with ascending stamps. */
void
recordSequence(BranchTelemetryMap &map, std::uint64_t pc,
               const std::vector<bool> &directions,
               std::uint64_t start = 0)
{
    std::uint64_t ts = start;
    for (bool taken : directions)
        map.record(pc, taken, ts += 4);
}

} // namespace

TEST(BranchTelemetry, ConstantBranchHasZeroEntropy)
{
    BranchTelemetryMap map; // default order 4
    recordSequence(map, 0x10, std::vector<bool>(100, true));

    const BranchTelemetry *t = map.find(0x10);
    ASSERT_NE(t, nullptr);
    EXPECT_EQ(t->executed, 100u);
    EXPECT_EQ(t->taken, 100u);
    EXPECT_EQ(t->transitions, 0u);
    EXPECT_DOUBLE_EQ(t->takenRate(), 1.0);
    EXPECT_DOUBLE_EQ(t->transitionRate(), 0.0);
    EXPECT_DOUBLE_EQ(t->entropyBits(), 0.0);
    // Executions 5..100 had a full 4-outcome context.
    EXPECT_EQ(t->contextSamples(), 96u);
}

TEST(BranchTelemetry, AlternatingBranchHasZeroEntropy)
{
    // T N T N ... is fully predictable from one outcome of history:
    // entropy 0 for any order >= 1, transition rate exactly 1.
    BranchTelemetryMap map(1);
    std::vector<bool> directions;
    for (int i = 0; i < 64; ++i)
        directions.push_back(i % 2 == 0);
    recordSequence(map, 0x20, directions);

    const BranchTelemetry *t = map.find(0x20);
    ASSERT_NE(t, nullptr);
    EXPECT_EQ(t->transitions, 63u);
    EXPECT_DOUBLE_EQ(t->transitionRate(), 1.0);
    EXPECT_DOUBLE_EQ(t->entropyBits(), 0.0);
}

TEST(BranchTelemetry, SingleExecutionHasZeroEntropy)
{
    BranchTelemetryMap map;
    map.record(0x30, true, 42);

    const BranchTelemetry *t = map.find(0x30);
    ASSERT_NE(t, nullptr);
    EXPECT_EQ(t->executed, 1u);
    EXPECT_EQ(t->transitions, 0u);
    EXPECT_EQ(t->contextSamples(), 0u);
    EXPECT_DOUBLE_EQ(t->transitionRate(), 0.0);
    EXPECT_DOUBLE_EQ(t->entropyBits(), 0.0);
    EXPECT_EQ(t->first_seen, 42u);
    EXPECT_EQ(t->last_seen, 42u);
}

TEST(BranchTelemetry, PeriodicPatternWithinOrderHasZeroEntropy)
{
    // Period-3 pattern T T N under order-4 contexts: every full
    // context determines the next outcome, so the branch measures as
    // perfectly predictable.
    BranchTelemetryMap map;
    std::vector<bool> directions;
    for (int i = 0; i < 90; ++i)
        directions.push_back(i % 3 != 2);
    recordSequence(map, 0x40, directions);

    const BranchTelemetry *t = map.find(0x40);
    ASSERT_NE(t, nullptr);
    EXPECT_GT(t->contextSamples(), 0u);
    EXPECT_DOUBLE_EQ(t->entropyBits(), 0.0);
}

TEST(BranchTelemetry, BalancedContextsMeasureOneBit)
{
    // k x (T T N N) plus a final T makes both order-1 contexts see
    // exactly half taken / half not-taken: a 1-history predictor
    // learns nothing, so H(outcome | 1 outcome) is exactly 1 bit.
    BranchTelemetryMap map(1);
    std::vector<bool> directions;
    for (int k = 0; k < 32; ++k) {
        directions.push_back(true);
        directions.push_back(true);
        directions.push_back(false);
        directions.push_back(false);
    }
    directions.push_back(true);
    recordSequence(map, 0x50, directions);

    const BranchTelemetry *t = map.find(0x50);
    ASSERT_NE(t, nullptr);
    EXPECT_DOUBLE_EQ(t->entropyBits(), 1.0);
}

TEST(BranchTelemetry, MergeMatchesSerialForAnySegmentation)
{
    // A deterministic pseudo-random interleaving of several branches,
    // split at every tested segment count: the segment-map fold must
    // be bit-identical (operator==, which compares every counter,
    // context bucket and boundary register) to the serial map.
    std::minstd_rand rng(12345);
    struct Event
    {
        std::uint64_t pc;
        bool taken;
        std::uint64_t ts;
    };
    std::vector<Event> events;
    const std::uint64_t pcs[] = {0x100, 0x104, 0x2a8, 0x400, 0x404};
    for (std::uint64_t i = 0; i < 500; ++i)
        events.push_back({pcs[rng() % 5], (rng() & 4) != 0, 10 + i});

    for (unsigned order : {1u, 4u, 8u}) {
        BranchTelemetryMap serial(order);
        for (const Event &e : events)
            serial.record(e.pc, e.taken, e.ts);

        for (std::size_t segments : {2u, 3u, 5u, 17u}) {
            BranchTelemetryMap merged(order);
            std::size_t begin = 0;
            for (std::size_t s = 0; s < segments; ++s) {
                std::size_t end =
                    events.size() * (s + 1) / segments;
                BranchTelemetryMap part(order);
                for (std::size_t i = begin; i < end; ++i)
                    part.record(events[i].pc, events[i].taken,
                                events[i].ts);
                merged.mergeAppend(part);
                begin = end;
            }
            EXPECT_TRUE(merged == serial)
                << "order " << order << ", " << segments
                << " segments";
        }
    }
}

TEST(BranchTelemetry, MergeRepairsShortBoundarySegments)
{
    // Segments shorter than the history order exercise the prefix
    // replay: the second segment's 2 executions cannot fill an
    // order-4 context on their own, yet the fold must still count the
    // boundary-crossing contexts the serial run saw.
    std::vector<bool> directions = {true,  false, true, true,
                                    false, true,  false};
    BranchTelemetryMap serial(4);
    recordSequence(serial, 0x60, directions);

    for (std::size_t split = 0; split <= directions.size(); ++split) {
        BranchTelemetryMap head(4);
        BranchTelemetryMap tail(4);
        std::uint64_t ts = 0;
        for (std::size_t i = 0; i < directions.size(); ++i) {
            ts += 4;
            (i < split ? head : tail)
                .record(0x60, directions[i], ts);
        }
        head.mergeAppend(tail);
        EXPECT_TRUE(head == serial) << "split at " << split;
    }
}

TEST(BranchTelemetry, MergeWithMismatchedOrderPanics)
{
    BranchTelemetryMap a(4);
    BranchTelemetryMap b(6);
    EXPECT_DEATH(a.mergeAppend(b), "mismatched orders");
}

TEST(BranchTelemetry, InvalidOrderPanics)
{
    EXPECT_DEATH(BranchTelemetryMap(0), "order");
    EXPECT_DEATH(BranchTelemetryMap(13), "order");
}

TEST(BranchTelemetry, ShardedProfilingTelemetryMatchesSerial)
{
    // End-to-end through the sharded engine: the per-segment cold
    // maps folded in segment order must equal the serial map, for the
    // same reason sharded conflict graphs equal serial ones.
    Workload w = makeWorkload("m88ksim", "", 0.05);
    MemoryTrace trace;
    w.source().replay(trace);
    ASSERT_FALSE(trace.empty());

    BranchTelemetryMap serial_map;
    ShardConfig serial_config;
    serial_config.interleave.telemetry = &serial_map;
    ConflictGraph serial_graph;
    profileTraceSharded(trace, serial_graph, serial_config);

    BranchTelemetryMap sharded_map;
    ShardConfig sharded_config;
    sharded_config.shards = 4;
    sharded_config.threads = 2;
    sharded_config.interleave.telemetry = &sharded_map;
    ConflictGraph sharded_graph;
    profileTraceSharded(trace, sharded_graph, sharded_config);

    EXPECT_FALSE(serial_map.empty());
    EXPECT_EQ(serial_map.totalExecuted(), trace.size());
    EXPECT_TRUE(sharded_map == serial_map);
}

TEST(BranchTelemetry, PerBranchSimCountsSumToAggregate)
{
    // The run report's first reconciliation invariant: per-branch
    // misprediction/execution counts sum exactly to the aggregate
    // RatioStat of the same replay.
    Workload w = makeWorkload("compress", "", 0.05);
    MemoryTrace trace;
    w.source().replay(trace);

    PredictorPtr predictor = makePredictor(paperBaselineSpec());
    PredictionStats stats =
        simulatePredictor(trace, *predictor, /*per_branch=*/true);

    std::uint64_t executed = 0;
    std::uint64_t mispredicts = 0;
    for (const auto &[pc, ratio] : stats.per_branch) {
        executed += ratio.total();
        mispredicts += ratio.events();
    }
    EXPECT_EQ(executed, stats.mispredicts.total());
    EXPECT_EQ(mispredicts, stats.mispredicts.events());
    EXPECT_EQ(executed, trace.size());
}

TEST(BranchTelemetry, ProbeAliasingSumsToDestructiveCounter)
{
    // The second reconciliation invariant: the probe's per-branch
    // victim counts -- and independently its aggressor counts -- sum
    // exactly to the aggregate destructive counter.
    Workload w = makeWorkload("m88ksim", "", 0.05);
    MemoryTrace trace;
    w.source().replay(trace);

    PredictorPtr predictor = makePredictor(paperBaselineSpec());
    auto &pag = dynamic_cast<PAgPredictor &>(*predictor);
    pag.enableInterferenceProbe();

    PredictionSim sim(*predictor);
    trace.replay(sim);

    const BhtInterferenceProbe *probe = pag.interferenceProbe();
    ASSERT_NE(probe, nullptr);
    std::uint64_t victims = 0;
    std::uint64_t aggressors = 0;
    for (const auto &[pc, aliasing] : probe->branchAliasing()) {
        victims += aliasing.victim;
        aggressors += aliasing.aggressor;
    }
    EXPECT_EQ(victims, probe->counters().destructive);
    EXPECT_EQ(aggressors, probe->counters().destructive);

    // topVictims honours its bound and its victim-count ordering.
    auto top = probe->topVictims(3);
    EXPECT_LE(top.size(), 3u);
    for (std::size_t i = 1; i < top.size(); ++i)
        EXPECT_GE(top[i - 1].second.victim, top[i].second.victim);
}
