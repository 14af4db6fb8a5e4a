/**
 * @file
 * Tests for the BHT interference attribution probe: the four-way
 * classification, the per-entry conflict ranking, the report JSON,
 * the probe's passivity on a live PAg, and the headline claim the
 * probe exists to check -- branch allocation eliminates destructive
 * aliasing events relative to the PC-indexed baseline.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/pipeline.hh"
#include "predict/factory.hh"
#include "predict/interference.hh"
#include "reference/index_policy.hh"
#include "reference/make_predictor.hh"
#include "reference/twolevel.hh"
#include "test_helpers.hh"
#include "workload/presets.hh"

using namespace bwsa;

// ------------------------------------------------------- classification

TEST(InterferenceProbe, ClassifiesTheFourOutcomes)
{
    BhtInterferenceProbe probe(4);

    // Identical histories: sharing had no effect, whatever the
    // predictions were.
    probe.observe(0, 0xA, 0b1010, 0b1010, true, true, false);
    // Histories differ, predictions agree.
    probe.observe(0, 0xA, 0b1010, 0b0010, true, true, true);
    // Predictions differ and the shared one was right.
    probe.observe(0, 0xA, 0b1010, 0b0010, true, false, true);
    // Predictions differ and the shared one was wrong.
    probe.observe(0, 0xA, 0b1010, 0b0010, false, true, true);

    const InterferenceCounters &c = probe.counters();
    EXPECT_EQ(c.predictions, 4u);
    EXPECT_EQ(c.agree, 1u);
    EXPECT_EQ(c.neutral, 1u);
    EXPECT_EQ(c.constructive, 1u);
    EXPECT_EQ(c.destructive, 1u);
    EXPECT_EQ(c.aliased(), 3u);
    EXPECT_DOUBLE_EQ(c.destructivePercent(), 25.0);
}

TEST(InterferenceProbe, ShadowHistoriesStartColdPerBranch)
{
    BhtInterferenceProbe probe(4);
    HistoryRegister &a = probe.shadow(0xA);
    EXPECT_EQ(a.value(), 0u);
    a.push(true);
    // Same branch gets the same register back; a new branch gets a
    // fresh cleared one.
    EXPECT_EQ(probe.shadow(0xA).value(), 1u);
    EXPECT_EQ(probe.shadow(0xB).value(), 0u);
    EXPECT_EQ(probe.shadowedBranches(), 2u);
}

TEST(InterferenceProbe, TopConflictsRanksSharedEntriesOnly)
{
    BhtInterferenceProbe probe(4);

    // Entry 0: two owners, two destructive events.
    probe.observe(0, 0xA, 1, 2, false, true, true);
    probe.observe(0, 0xB, 1, 2, false, true, true);
    // Entry 1: two owners ping-ponging, one destructive event.
    probe.observe(1, 0xC, 1, 2, false, true, true);
    probe.observe(1, 0xD, 1, 1, true, true, true);
    probe.observe(1, 0xC, 1, 1, true, true, true);
    // Entry 2: single owner -- never a conflict, however busy.
    probe.observe(2, 0xE, 1, 2, false, true, true);

    std::vector<EntryConflict> top = probe.topConflicts(8);
    ASSERT_EQ(top.size(), 2u);
    EXPECT_EQ(top[0].entry, 0u);
    EXPECT_EQ(top[0].destructive, 2u);
    EXPECT_EQ(top[0].branches, 2u);
    EXPECT_EQ(top[1].entry, 1u);
    EXPECT_EQ(top[1].owner_switches, 2u);

    // The budget truncates the ranking.
    EXPECT_EQ(probe.topConflicts(1).size(), 1u);
}

TEST(InterferenceProbe, ReportJsonCarriesCountersAndTopEntries)
{
    BhtInterferenceProbe probe(4);
    probe.shadow(0xA);
    probe.shadow(0xB);
    probe.observe(3, 0xA, 1, 2, false, true, true);
    probe.observe(3, 0xB, 1, 2, false, true, true);

    obs::JsonValue doc = probe.reportJson("compress/ref", "PAg", 4);
    EXPECT_EQ(doc.find("scope")->asString(), "compress/ref");
    EXPECT_EQ(doc.find("predictor")->asString(), "PAg");
    EXPECT_EQ(doc.find("predictions")->asUint(), 2u);
    EXPECT_EQ(doc.find("destructive")->asUint(), 2u);
    EXPECT_DOUBLE_EQ(doc.find("destructive_percent")->asDouble(),
                     100.0);
    EXPECT_EQ(doc.find("shadowed_branches")->asUint(), 2u);
    const obs::JsonValue *top = doc.find("top_entries");
    ASSERT_NE(top, nullptr);
    ASSERT_TRUE(top->isArray());
    ASSERT_EQ(top->size(), 1u);
    EXPECT_EQ(top->at(0).find("entry")->asUint(), 3u);
    EXPECT_EQ(top->at(0).find("destructive")->asUint(), 2u);
}

// ------------------------------------------------------- on a live PAg

namespace
{

/** Deterministic multi-branch stream that aliases in a tiny BHT. */
std::vector<std::pair<BranchPc, bool>>
aliasingStream(int length)
{
    // Two opposite-bias branches colliding in a 1-entry BHT, in a
    // pseudo-random order: the shared history mixes both branches'
    // outcomes into noisy patterns, while each private history is a
    // constant the shared PHT could predict perfectly.  (A strictly
    // alternating order would NOT destruct -- it gives each branch a
    // unique, learnable shared pattern.)
    std::vector<std::pair<BranchPc, bool>> out;
    std::uint32_t x = 12345;
    for (int i = 0; i < length; ++i) {
        x = x * 1664525u + 1013904223u;
        bool pick_a = (x >> 16) & 1;
        out.emplace_back(pick_a ? 0x400000 : 0x400008, pick_a);
    }
    return out;
}

} // namespace

TEST(InterferenceProbe, DetectsDestructionUnderForcedAliasing)
{
    PAgPredictor pag(std::make_unique<ModuloIndexer>(1, 3), 4, 64);
    pag.enableInterferenceProbe();
    for (auto [pc, taken] : aliasingStream(400)) {
        pag.predict(pc);
        pag.update(pc, taken);
    }
    const BhtInterferenceProbe *probe = pag.interferenceProbe();
    ASSERT_NE(probe, nullptr);
    EXPECT_EQ(probe->counters().predictions, 400u);
    EXPECT_GT(probe->counters().aliased(), 0u);
    EXPECT_GT(probe->counters().destructive, 0u);
    EXPECT_EQ(probe->shadowedBranches(), 2u);

    std::vector<EntryConflict> top = probe->topConflicts(4);
    ASSERT_EQ(top.size(), 1u);
    EXPECT_EQ(top[0].entry, 0u);
    EXPECT_EQ(top[0].branches, 2u);

    // reset() clears the probe along with the tables.
    pag.reset();
    ASSERT_NE(pag.interferenceProbe(), nullptr);
    EXPECT_EQ(pag.interferenceProbe()->counters().predictions, 0u);
}

TEST(InterferenceProbe, ProbeIsPassive)
{
    // The probed and unprobed predictor must produce byte-identical
    // prediction streams -- the probe only watches.
    PAgPredictor plain(std::make_unique<ModuloIndexer>(4, 3), 6, 64);
    PAgPredictor probed(std::make_unique<ModuloIndexer>(4, 3), 6, 64);
    probed.enableInterferenceProbe();

    std::vector<std::pair<BranchPc, bool>> stream;
    for (int i = 0; i < 500; ++i) {
        BranchPc pc = 0x400000 + 8 * (i % 7);
        bool taken = ((i * 2654435761u) >> 3) & 1;
        stream.emplace_back(pc, taken);
    }
    for (auto [pc, taken] : stream) {
        EXPECT_EQ(plain.predict(pc), probed.predict(pc));
        plain.update(pc, taken);
        probed.update(pc, taken);
    }
    EXPECT_GT(probed.interferenceProbe()->counters().predictions, 0u);
}

// --------------------------------------------------- the headline claim

namespace
{

/** Replays a trace through two probed predictors simultaneously. */
struct DualSink final : TraceSink
{
    Predictor &first;
    Predictor &second;

    DualSink(Predictor &f, Predictor &s) : first(f), second(s) {}

    void
    onBranch(const BranchRecord &record) override
    {
        first.predict(record.pc);
        first.update(record.pc, record.taken);
        second.predict(record.pc);
        second.update(record.pc, record.taken);
    }
};

} // namespace

TEST(InterferenceProbe, AllocationEliminatesDestructiveAliasing)
{
    // The acceptance claim of the attribution layer: on the same
    // trace, the allocation-indexed PAg hosts strictly fewer
    // destructive-aliasing events than the PC-indexed 1024-entry
    // baseline -- the events the allocator explicitly separates.
    Workload w = makeWorkload("gcc", "", 0.05);
    WorkloadTraceSource source = w.source();

    AllocationPipeline pipeline;
    testhelpers::profileRun(pipeline, source);

    PredictorPtr base = makePredictor(paperBaselineSpec());
    PredictorPtr alloc = makePredictor(pipeline.predictorSpec(1024));
    auto *base_pag = dynamic_cast<PAgPredictor *>(base.get());
    auto *alloc_pag = dynamic_cast<PAgPredictor *>(alloc.get());
    ASSERT_NE(base_pag, nullptr);
    ASSERT_NE(alloc_pag, nullptr);
    base_pag->enableInterferenceProbe();
    alloc_pag->enableInterferenceProbe();

    DualSink sink(*base, *alloc);
    source.replay(sink);

    const InterferenceCounters &b =
        base_pag->interferenceProbe()->counters();
    const InterferenceCounters &a =
        alloc_pag->interferenceProbe()->counters();
    EXPECT_EQ(b.predictions, a.predictions);
    EXPECT_GT(b.destructive, 0u);
    EXPECT_LT(a.destructive, b.destructive);
}
