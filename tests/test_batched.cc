/**
 * @file
 * Tests for the batched replay engine (sim/batched_replay.hh):
 *
 *  - every PredictorKind produces byte-identical statistics
 *    (aggregate and per-branch) whether replayed through
 *    BatchedReplayer or through comparePredictors(), the reference
 *    implementation under tests/reference, composite and
 *    wide-history specs included;
 *  - the interference probe riding a batched PAg lane classifies
 *    exactly like PAgPredictor's own probe, down to per-branch
 *    victim/aggressor attribution;
 *  - lanes reject exactly the specs the reference constructors do;
 *  - replay() maintains the sim.runs / sim.predictor_runs counter
 *    contract: one trace replay, laneCount() predictor replays;
 *  - block and slot boundaries are invisible: full blocks, a partial
 *    tail block, a slot table that grows mid-block and blocks cut at
 *    phase boundaries all replay exactly like the reference.
 */

#include <gtest/gtest.h>

#include "obs/metrics.hh"
#include "obs/phase_detect.hh"
#include "predict/factory.hh"
#include "reference/bpred_sim.hh"
#include "reference/make_predictor.hh"
#include "reference/twolevel.hh"
#include "sim/batched_replay.hh"
#include "trace/trace.hh"
#include "util/random.hh"

using namespace bwsa;

namespace
{

/**
 * Outcome of record @p i at @p pc: per-site behavior mix, some
 * strongly biased, some pattern-driven, some noisy -- enough to
 * exercise histories.
 */
bool
siteOutcome(BranchPc pc, std::size_t i, Pcg32 &rng)
{
    switch ((pc >> 3) % 4) {
      case 0:
        return true;
      case 1:
        return (i % 3) != 0;
      case 2:
        return rng.nextBool(0.5);
      default:
        return rng.nextBool(0.85);
    }
}

/** Random trace over @p distinct branch sites. */
MemoryTrace
makeTrace(std::size_t n, std::uint64_t seed,
          std::uint32_t distinct = 300)
{
    Pcg32 rng(seed);
    MemoryTrace trace;
    for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t pc = 0x400000 + 8ull * rng.nextBounded(distinct);
        trace.onBranch({pc, 5ull * (i + 1), siteOutcome(pc, i, rng)});
    }
    return trace;
}

/**
 * Three full blocks plus a 17-record tail over a widening branch
 * population: new sites arrive in every block (40 at first, ~350 at
 * the end) and the tail runs 5 sites never seen before, so the slot
 * table grows past 64, 128 and 256 slots mid-block and the last,
 * partial block still opens slots.
 */
MemoryTrace
makeWideningTrace(std::uint64_t seed)
{
    const std::size_t n = 3 * BatchedReplayer::block_records + 17;
    Pcg32 rng(seed);
    MemoryTrace trace;
    for (std::size_t i = 0; i < n; ++i) {
        const auto sites = static_cast<std::uint32_t>(40 + i / 40);
        std::uint64_t pc = i + 17 >= n
                               ? 0x900000 + 8ull * (i % 5)
                               : 0x400000 + 8ull * rng.nextBounded(sites);
        trace.onBranch({pc, 5ull * (i + 1), siteOutcome(pc, i, rng)});
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

/** Every PredictorKind, composite and wide-history specs included. */
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
    // Composite kinds (lanes built from sub-lanes) and >16-bit
    // histories.
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

/** Fresh reference predictor for @p spec; probed when it is a PAg. */
PredictorPtr
probedReference(const PredictorSpec &spec)
{
    PredictorPtr built = makePredictor(spec);
    if (auto *pag = dynamic_cast<PAgPredictor *>(built.get()))
        pag->enableInterferenceProbe();
    return built;
}

void
expectSameProbe(const BhtInterferenceProbe &got,
                const BhtInterferenceProbe &want, const std::string &name)
{
    EXPECT_EQ(got.counters().predictions, want.counters().predictions)
        << name;
    EXPECT_EQ(got.counters().agree, want.counters().agree) << name;
    EXPECT_EQ(got.counters().neutral, want.counters().neutral) << name;
    EXPECT_EQ(got.counters().constructive,
              want.counters().constructive)
        << name;
    EXPECT_EQ(got.counters().destructive, want.counters().destructive)
        << name;
    EXPECT_EQ(got.shadowedBranches(), want.shadowedBranches()) << name;
    ASSERT_EQ(got.branchAliasing().size(), want.branchAliasing().size())
        << name;
    for (const auto &[pc, aliasing] : want.branchAliasing()) {
        auto it = got.branchAliasing().find(pc);
        ASSERT_NE(it, got.branchAliasing().end()) << name << " pc " << pc;
        EXPECT_EQ(it->second.victim, aliasing.victim) << name;
        EXPECT_EQ(it->second.aggressor, aliasing.aggressor) << name;
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

TEST(BatchedReplay, WideHistoryProbeMatchesToo)
{
    // hist=20: the probe's shadow histories and the lane's packed
    // uint32_t patterns must agree beyond 16 bits too.
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

TEST(BatchedReplayDeath, RejectsWhatTheReferenceRejects)
{
    // Every spec here is refused by the reference constructors, so a
    // lane must refuse it too rather than replay a nonsense geometry.
    auto expectRejected = [](const PredictorSpec &spec,
                             const char *message) {
        EXPECT_DEATH(makePredictor(spec), message);
        EXPECT_DEATH(BatchedReplayer().addLane(spec), message);
    };

    PredictorSpec no_pht = paperBaselineSpec();
    no_pht.pht_entries = 0;
    expectRejected(no_pht, "nonzero PHT");

    PredictorSpec bimodal_no_bht = specOf(PredictorKind::Bimodal);
    bimodal_no_bht.bht_entries = 0;
    expectRejected(bimodal_no_bht, "at least 1 entry");

    PredictorSpec pag_no_bht = paperBaselineSpec();
    pag_no_bht.bht_entries = 0;
    expectRejected(pag_no_bht, "at least 1 entry");

    PredictorSpec pas_sets = parsePredictorSpec("pas");
    pas_sets.pht_sets = 3;
    expectRejected(pas_sets, "power of two");

    expectRejected(allocatedSpec({{0x400000, 64}}, 64),
                   "exceeds table size");

    for (unsigned bits : {0u, 9u}) {
        PredictorSpec counter = paperBaselineSpec();
        counter.counter_bits = bits;
        expectRejected(counter, "width must be 1\\.\\.8");
    }

    PredictorSpec no_chooser = specOf(PredictorKind::Tournament);
    no_chooser.pht_entries = 0;
    expectRejected(no_chooser, "nonzero chooser");
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

TEST(BatchedReplay, BlockBoundariesMatchReference)
{
    // Every kind, per-branch ratios on and the probe on every lane
    // (honoured by the PAg lanes), over full blocks, a partial tail
    // block and a slot table that grows mid-block.  The static
    // filters cover both sub-lane index modes: allocated (zoo) and
    // modulo (no assignment).
    MemoryTrace trace = makeWideningTrace(71);
    ASSERT_EQ(trace.size() % BatchedReplayer::block_records, 17u);
    std::vector<PredictorSpec> specs = zooSpecs();
    PredictorSpec filtered_modulo = specOf(PredictorKind::StaticFilteredPAg);
    filtered_modulo.static_directions = makeDirections();
    specs.push_back(filtered_modulo);

    std::vector<PredictorPtr> owned;
    std::vector<Predictor *> raw;
    for (const PredictorSpec &spec : specs) {
        owned.push_back(probedReference(spec));
        raw.push_back(owned.back().get());
    }
    std::vector<PredictionStats> want =
        comparePredictors(trace, raw, true);

    BatchedReplayer replayer(true);
    BatchedLaneOptions options;
    options.probe = true;
    for (const PredictorSpec &spec : specs)
        replayer.addLane(spec, options);
    replayer.replay(trace);

    std::size_t probed = 0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const PredictionStats &got = replayer.stats(i);
        EXPECT_EQ(got.mispredicts.total(), trace.size());
        EXPECT_EQ(got.per_branch.size(), want[i].per_branch.size());
        expectSameStats(got, want[i]);
        auto *pag = dynamic_cast<PAgPredictor *>(owned[i].get());
        const BhtInterferenceProbe *got_probe = replayer.probe(i);
        ASSERT_EQ(got_probe != nullptr, pag != nullptr)
            << got.predictor_name;
        if (pag) {
            expectSameProbe(*got_probe, *pag->interferenceProbe(),
                            got.predictor_name);
            ++probed;
        }
    }
    EXPECT_EQ(probed, 5u); // modulo x2, allocated, ideal, wide history
}

TEST(BatchedReplay, PhaseBinsMatchPerPhaseReference)
{
    // Three phases.  The first boundary falls inside the second block,
    // which it cuts short; the second lands exactly where the next
    // block fills up, so that block ends on the boundary.
    MemoryTrace trace = makeWideningTrace(83);
    const std::vector<BranchRecord> &records = trace.records();
    const std::size_t cut1 = BatchedReplayer::block_records + 1000;
    const std::size_t cut2 = cut1 + BatchedReplayer::block_records;
    obs::PhaseTimeline timeline;
    timeline.phases.resize(3);
    timeline.phases[0].start_ts = records[0].timestamp;
    timeline.phases[1].start_ts = records[cut1].timestamp;
    timeline.phases[2].start_ts = records[cut2].timestamp;
    auto phaseOf = [&](std::size_t i) -> std::size_t {
        return i < cut1 ? 0 : i < cut2 ? 1 : 2;
    };

    // Small shared tables, so every phase has destructive events to
    // bin; the interference-free lane has none.
    const std::vector<PredictorSpec> specs{
        parsePredictorSpec("pag:bht=32"),
        allocatedSpec(makeAssignment(64), 64), interferenceFreeSpec(),
        parsePredictorSpec("gshare")};
    BatchedReplayer replayer;
    BatchedLaneOptions options;
    options.probe = true;
    for (const PredictorSpec &spec : specs)
        replayer.addLane(spec, options);
    replayer.setPhaseTimeline(&timeline);
    replayer.replay(trace);

    // Reference: each predictor stepped record by record, its probe's
    // destructive count read after every record.
    for (std::size_t lane = 0; lane < specs.size(); ++lane) {
        PredictorPtr reference = probedReference(specs[lane]);
        auto *pag = dynamic_cast<PAgPredictor *>(reference.get());
        std::vector<LanePhaseBin> want(3);
        std::uint64_t destructive = 0;
        for (std::size_t i = 0; i < records.size(); ++i) {
            const BranchRecord &record = records[i];
            bool predicted = reference->predict(record.pc);
            reference->update(record.pc, record.taken);
            LanePhaseBin &bin = want[phaseOf(i)];
            ++bin.executed;
            if (predicted != record.taken)
                ++bin.mispredicted;
            if (pag) {
                std::uint64_t now =
                    pag->interferenceProbe()->counters().destructive;
                bin.destructive += now - destructive;
                destructive = now;
            }
        }
        const std::vector<LanePhaseBin> &got = replayer.phaseBins(lane);
        ASSERT_EQ(got.size(), 3u);
        for (std::size_t p = 0; p < 3; ++p) {
            EXPECT_EQ(got[p].executed, want[p].executed)
                << "lane " << lane << " phase " << p;
            EXPECT_EQ(got[p].mispredicted, want[p].mispredicted)
                << "lane " << lane << " phase " << p;
            EXPECT_EQ(got[p].destructive, want[p].destructive)
                << "lane " << lane << " phase " << p;
        }
        if (lane < 2) {
            for (const LanePhaseBin &bin : want)
                EXPECT_GT(bin.destructive, 0u) << "lane " << lane;
        }
    }

    std::vector<std::unordered_set<BranchPc>> want_pcs(3);
    for (std::size_t i = 0; i < records.size(); ++i)
        want_pcs[phaseOf(i)].insert(records[i].pc);
    EXPECT_EQ(replayer.phasePcs(), want_pcs);
}
