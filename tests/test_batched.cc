/**
 * @file
 * Tests for the batched replay engine (sim/batched_replay.hh):
 *
 *  - every predictor family the factory can build produces
 *    byte-identical statistics (aggregate and per-branch) whether
 *    replayed through BatchedReplayer or through comparePredictors(),
 *    the reference implementation;
 *  - the interference probe riding a batched PAg lane classifies
 *    exactly like PAgPredictor's own probe, down to per-branch
 *    victim/aggressor attribution;
 *  - composite / wide-history specs run through the generic fallback
 *    lane and still match the reference;
 *  - replay() maintains the sim.runs / sim.predictor_runs counter
 *    contract: one trace replay, laneCount() predictor replays.
 */

#include <gtest/gtest.h>

#include "obs/metrics.hh"
#include "predict/factory.hh"
#include "predict/twolevel.hh"
#include "sim/batched_replay.hh"
#include "sim/bpred_sim.hh"
#include "trace/trace.hh"
#include "util/random.hh"

using namespace bwsa;

namespace
{

/** Random trace over @p distinct branch sites. */
MemoryTrace
makeTrace(std::size_t n, std::uint64_t seed,
          std::uint32_t distinct = 300)
{
    Pcg32 rng(seed);
    MemoryTrace trace;
    for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t pc = 0x400000 + 8ull * rng.nextBounded(distinct);
        // Per-site behavior mix: some strongly biased, some
        // pattern-driven, some noisy -- enough to exercise histories.
        bool taken;
        switch ((pc >> 3) % 4) {
          case 0:
            taken = true;
            break;
          case 1:
            taken = (i % 3) != 0;
            break;
          case 2:
            taken = rng.nextBool(0.5);
            break;
          default:
            taken = rng.nextBool(0.85);
            break;
        }
        trace.onBranch({pc, 5ull * (i + 1), taken});
    }
    return trace;
}

/** A BHT assignment covering some of makeTrace's sites. */
std::unordered_map<BranchPc, std::uint32_t>
makeAssignment(std::uint32_t entries)
{
    std::unordered_map<BranchPc, std::uint32_t> assignment;
    for (std::uint32_t i = 0; i < 200; ++i)
        assignment.emplace(0x400000 + 8ull * i, i % entries);
    return assignment;
}

/** Static directions for StaticFilteredPAg / ProfileStatic specs. */
std::unordered_map<BranchPc, bool>
makeDirections()
{
    std::unordered_map<BranchPc, bool> directions;
    for (std::uint32_t i = 0; i < 100; i += 2)
        directions.emplace(0x400000 + 8ull * i, (i % 4) == 0);
    return directions;
}

PredictorSpec
specOf(PredictorKind kind)
{
    PredictorSpec spec;
    spec.kind = kind;
    return spec;
}

/** The whole factory zoo, flat lanes and generic fallbacks alike. */
std::vector<PredictorSpec>
zooSpecs()
{
    std::vector<PredictorSpec> specs;
    specs.push_back(specOf(PredictorKind::AlwaysTaken));
    specs.push_back(specOf(PredictorKind::AlwaysNotTaken));
    specs.push_back(specOf(PredictorKind::Bimodal));
    specs.push_back(parsePredictorSpec("gag:hist=10"));
    specs.push_back(parsePredictorSpec("gshare:hist=11,ctr=3"));
    specs.push_back(parsePredictorSpec("agree:hist=9"));
    specs.push_back(paperBaselineSpec());
    specs.push_back(parsePredictorSpec("pag:bht=64,hist=8,pht=128"));
    specs.push_back(allocatedSpec(makeAssignment(64), 64));
    specs.push_back(interferenceFreeSpec());
    specs.push_back(parsePredictorSpec("pas:bht=128,hist=6,sets=4"));
    // Generic fallback lanes: composite kinds and >16-bit history.
    specs.push_back(specOf(PredictorKind::Tournament));
    specs.push_back(parsePredictorSpec("gshare:hist=18"));
    specs.push_back(parsePredictorSpec("pag:bht=32,hist=20,pht=64"));
    PredictorSpec filtered = specOf(PredictorKind::StaticFilteredPAg);
    filtered.assignment = makeAssignment(128);
    filtered.bht_entries = 128;
    filtered.static_directions = makeDirections();
    specs.push_back(filtered);
    PredictorSpec profile_static = specOf(PredictorKind::ProfileStatic);
    profile_static.static_directions = makeDirections();
    specs.push_back(profile_static);
    return specs;
}

/** comparePredictors() over fresh makePredictor instances. */
std::vector<PredictionStats>
referenceReplay(const TraceSource &source,
                const std::vector<PredictorSpec> &specs,
                bool per_branch = false)
{
    std::vector<PredictorPtr> owned;
    std::vector<Predictor *> raw;
    for (const PredictorSpec &spec : specs) {
        owned.push_back(makePredictor(spec));
        raw.push_back(owned.back().get());
    }
    return comparePredictors(source, raw, per_branch);
}

void
expectSameStats(const PredictionStats &batched,
                const PredictionStats &reference)
{
    EXPECT_EQ(batched.predictor_name, reference.predictor_name);
    EXPECT_EQ(batched.mispredicts.events(),
              reference.mispredicts.events())
        << batched.predictor_name;
    EXPECT_EQ(batched.mispredicts.total(),
              reference.mispredicts.total())
        << batched.predictor_name;
    ASSERT_EQ(batched.per_branch.size(), reference.per_branch.size())
        << batched.predictor_name;
    for (const auto &[pc, ratio] : reference.per_branch) {
        auto it = batched.per_branch.find(pc);
        ASSERT_NE(it, batched.per_branch.end())
            << batched.predictor_name << " pc " << pc;
        EXPECT_EQ(it->second.events(), ratio.events())
            << batched.predictor_name << " pc " << pc;
        EXPECT_EQ(it->second.total(), ratio.total())
            << batched.predictor_name << " pc " << pc;
    }
}

} // namespace

TEST(BatchedReplay, ZooMatchesComparePredictors)
{
    MemoryTrace trace = makeTrace(20000, 11);
    std::vector<PredictorSpec> specs = zooSpecs();

    std::vector<PredictionStats> reference =
        referenceReplay(trace, specs);
    std::vector<PredictionStats> batched = replayBatched(trace, specs);

    ASSERT_EQ(batched.size(), reference.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
        expectSameStats(batched[i], reference[i]);
}

TEST(BatchedReplay, PerBranchMapsMatchReference)
{
    MemoryTrace trace = makeTrace(12000, 23);
    std::vector<PredictorSpec> specs = zooSpecs();

    std::vector<PredictionStats> reference =
        referenceReplay(trace, specs, true);
    std::vector<PredictionStats> batched =
        replayBatched(trace, specs, true);

    ASSERT_EQ(batched.size(), reference.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_FALSE(batched[i].per_branch.empty())
            << batched[i].predictor_name;
        expectSameStats(batched[i], reference[i]);
    }
}

TEST(BatchedReplay, FlatAndGenericLaneClassification)
{
    BatchedReplayer replayer;
    std::size_t flat_pag = replayer.addLane(paperBaselineSpec());
    std::size_t ideal = replayer.addLane(interferenceFreeSpec());
    std::size_t tournament =
        replayer.addLane(specOf(PredictorKind::Tournament));
    // Global history lives in a 32-bit register, so wide-history
    // gshare stays flat; per-address histories are packed uint16_t
    // patterns, so a >16-bit PAg falls back to the generic lane.
    std::size_t wide_global =
        replayer.addLane(parsePredictorSpec("gshare:hist=18"));
    std::size_t wide_private =
        replayer.addLane(parsePredictorSpec("pag:bht=32,hist=20"));

    EXPECT_TRUE(replayer.laneIsFlat(flat_pag));
    EXPECT_TRUE(replayer.laneIsFlat(ideal));
    EXPECT_FALSE(replayer.laneIsFlat(tournament));
    EXPECT_TRUE(replayer.laneIsFlat(wide_global));
    EXPECT_FALSE(replayer.laneIsFlat(wide_private));
}

TEST(BatchedReplay, LaneNamesMatchFactoryNames)
{
    BatchedReplayer replayer;
    for (const PredictorSpec &spec : zooSpecs()) {
        std::size_t lane = replayer.addLane(spec);
        EXPECT_EQ(replayer.laneName(lane), makePredictor(spec)->name());
    }
}

TEST(BatchedReplay, ProbeMatchesPredictorProbe)
{
    MemoryTrace trace = makeTrace(15000, 37);

    // Reference: PAgPredictor with its own probe under PredictionSim.
    PredictorPtr built = makePredictor(paperBaselineSpec());
    auto *pag = dynamic_cast<PAgPredictor *>(built.get());
    ASSERT_NE(pag, nullptr);
    pag->enableInterferenceProbe();
    PredictionStats reference = simulatePredictor(trace, *built);
    const BhtInterferenceProbe *want = pag->interferenceProbe();
    ASSERT_NE(want, nullptr);

    // Batched: same spec, probe-enabled lane (flat PAg step loop).
    BatchedReplayer replayer;
    BatchedLaneOptions options;
    options.probe = true;
    std::size_t lane = replayer.addLane(paperBaselineSpec(), options);
    replayer.replay(trace);
    const BhtInterferenceProbe *got = replayer.probe(lane);
    ASSERT_NE(got, nullptr);

    expectSameStats(replayer.stats(lane), reference);
    EXPECT_EQ(got->counters().predictions,
              want->counters().predictions);
    EXPECT_EQ(got->counters().agree, want->counters().agree);
    EXPECT_EQ(got->counters().neutral, want->counters().neutral);
    EXPECT_EQ(got->counters().constructive,
              want->counters().constructive);
    EXPECT_EQ(got->counters().destructive,
              want->counters().destructive);
    EXPECT_EQ(got->shadowedBranches(), want->shadowedBranches());

    const auto &want_branches = want->branchAliasing();
    const auto &got_branches = got->branchAliasing();
    ASSERT_EQ(got_branches.size(), want_branches.size());
    for (const auto &[pc, aliasing] : want_branches) {
        auto it = got_branches.find(pc);
        ASSERT_NE(it, got_branches.end());
        EXPECT_EQ(it->second.victim, aliasing.victim);
        EXPECT_EQ(it->second.aggressor, aliasing.aggressor);
    }

    auto want_victims = want->topVictims(8);
    auto got_victims = got->topVictims(8);
    ASSERT_EQ(got_victims.size(), want_victims.size());
    for (std::size_t i = 0; i < want_victims.size(); ++i)
        EXPECT_EQ(got_victims[i].first, want_victims[i].first);
}

TEST(BatchedReplay, GenericLaneProbeMatchesToo)
{
    // hist=20 exceeds the flat lane's 16-bit pattern budget, so this
    // probe rides the generic fallback's real PAgPredictor.
    MemoryTrace trace = makeTrace(8000, 41);
    PredictorSpec spec = parsePredictorSpec("pag:bht=64,hist=20");

    PredictorPtr built = makePredictor(spec);
    auto *pag = dynamic_cast<PAgPredictor *>(built.get());
    ASSERT_NE(pag, nullptr);
    pag->enableInterferenceProbe();
    simulatePredictor(trace, *built);
    const BhtInterferenceProbe *want = pag->interferenceProbe();

    BatchedReplayer replayer;
    BatchedLaneOptions options;
    options.probe = true;
    std::size_t lane = replayer.addLane(spec, options);
    EXPECT_FALSE(replayer.laneIsFlat(lane));
    replayer.replay(trace);
    const BhtInterferenceProbe *got = replayer.probe(lane);
    ASSERT_NE(got, nullptr);

    EXPECT_EQ(got->counters().predictions,
              want->counters().predictions);
    EXPECT_EQ(got->counters().destructive,
              want->counters().destructive);
}

TEST(BatchedReplay, ProbeIgnoredForKindsWithoutBht)
{
    BatchedReplayer replayer;
    BatchedLaneOptions options;
    options.probe = true;
    std::size_t lane =
        replayer.addLane(parsePredictorSpec("gshare"), options);
    EXPECT_EQ(replayer.probe(lane), nullptr);
}

TEST(BatchedReplay, RunCountersFollowTheContract)
{
    MemoryTrace trace = makeTrace(1000, 53);
    auto &registry = obs::MetricsRegistry::global();
    std::uint64_t runs_before =
        registry.snapshot().counterValue("sim.runs");
    std::uint64_t predictor_runs_before =
        registry.snapshot().counterValue("sim.predictor_runs");

    std::vector<PredictorSpec> specs{paperBaselineSpec(),
                                     interferenceFreeSpec(),
                                     specOf(PredictorKind::Bimodal)};
    replayBatched(trace, specs);

    obs::MetricsSnapshot snap = registry.snapshot();
    EXPECT_EQ(snap.counterValue("sim.runs"), runs_before + 1);
    EXPECT_EQ(snap.counterValue("sim.predictor_runs"),
              predictor_runs_before + specs.size());
}

TEST(BatchedReplay, EmptyTraceYieldsZeroLanes)
{
    MemoryTrace empty;
    std::vector<PredictionStats> stats =
        replayBatched(empty, {paperBaselineSpec()});
    ASSERT_EQ(stats.size(), 1u);
    EXPECT_EQ(stats[0].mispredicts.total(), 0u);
    EXPECT_EQ(stats[0].mispredicts.events(), 0u);
}

TEST(BatchedReplay, ReplayerIsReusableAcrossTraces)
{
    // Two consecutive replays accumulate; the second trace's deltas
    // flush correctly (mirrors PredictionSim being driven twice).
    MemoryTrace a = makeTrace(3000, 61);
    MemoryTrace b = makeTrace(2000, 67);

    BatchedReplayer replayer;
    std::size_t lane = replayer.addLane(paperBaselineSpec());
    replayer.replay(a);
    std::uint64_t after_a = replayer.stats(lane).mispredicts.total();
    replayer.replay(b);
    EXPECT_EQ(after_a, a.size());
    EXPECT_EQ(replayer.stats(lane).mispredicts.total(),
              a.size() + b.size());
}
