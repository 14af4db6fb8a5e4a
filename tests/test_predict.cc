/**
 * @file
 * Tests for the predictor library: index policies, learning behaviour
 * of each predictor family, aliasing effects (the phenomenon branch
 * allocation removes), and the factory.
 */

#include <gtest/gtest.h>

#include "predict/bimodal.hh"
#include "predict/factory.hh"
#include "predict/index_policy.hh"
#include "predict/static_pred.hh"
#include "predict/tournament.hh"
#include "predict/twolevel.hh"
#include "util/random.hh"

using namespace bwsa;

namespace
{

/** Train-and-measure helper: returns misprediction ratio. */
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

/** n repetitions of a fixed pattern for one branch. */
std::vector<std::pair<BranchPc, bool>>
patternStream(BranchPc pc, const std::vector<bool> &pattern, int reps)
{
    std::vector<std::pair<BranchPc, bool>> out;
    for (int r = 0; r < reps; ++r)
        for (bool taken : pattern)
            out.emplace_back(pc, taken);
    return out;
}

} // namespace

// ---------------------------------------------------------- index policies

TEST(ModuloIndexer, WrapsLowOrderBits)
{
    ModuloIndexer idx(1024, 3);
    EXPECT_EQ(idx.index(0x400000), (0x400000 >> 3) % 1024);
    // Two branches 1024 slots apart collide.
    EXPECT_EQ(idx.index(0x400000), idx.index(0x400000 + 1024 * 8));
    // Adjacent branches do not.
    EXPECT_NE(idx.index(0x400000), idx.index(0x400008));
    EXPECT_EQ(idx.tableSize(), 1024u);
}

TEST(AllocatedIndexer, UsesAssignmentWithModuloFallback)
{
    std::unordered_map<BranchPc, std::uint32_t> assign{
        {0x400000, 7}, {0x400008, 7}, {0x400010, 3}};
    AllocatedIndexer idx(assign, 16, 3);
    EXPECT_EQ(idx.index(0x400000), 7u);
    EXPECT_EQ(idx.index(0x400008), 7u); // deliberate sharing
    EXPECT_EQ(idx.index(0x400010), 3u);
    // Unallocated branch falls back to PC hashing.
    EXPECT_EQ(idx.index(0x400018), (0x400018 >> 3) % 16);
    EXPECT_EQ(idx.allocatedCount(), 3u);
}

TEST(AllocatedIndexerDeath, RejectsOutOfRangeAssignment)
{
    std::unordered_map<BranchPc, std::uint32_t> assign{{0x400000, 16}};
    EXPECT_DEATH(AllocatedIndexer(assign, 16, 3), "exceeds table");
}

TEST(IdealIndexer, PrivateIndexPerBranch)
{
    IdealIndexer idx;
    std::uint64_t a = idx.index(0x400000);
    std::uint64_t b = idx.index(0x400008);
    std::uint64_t c = idx.index(0x400000 + 1024 * 8); // would alias
    EXPECT_NE(a, b);
    EXPECT_NE(a, c);
    EXPECT_NE(b, c);
    EXPECT_EQ(idx.index(0x400000), a); // stable
    EXPECT_EQ(idx.seen(), 3u);
    EXPECT_EQ(idx.tableSize(), 0u); // unbounded
}

// --------------------------------------------------------------- bimodal

TEST(Bimodal, LearnsBias)
{
    BimodalPredictor p(std::make_unique<ModuloIndexer>(256), 2);
    auto stream = patternStream(0x400000, {true}, 1000);
    EXPECT_LT(missRate(p, stream), 0.01);
}

TEST(Bimodal, ToleratesSingleAnomaly)
{
    BimodalPredictor p(std::make_unique<ModuloIndexer>(256), 2);
    // Saturate taken, inject one not-taken, verify next is still taken.
    for (int i = 0; i < 10; ++i)
        p.update(0x100, true);
    p.update(0x100, false);
    EXPECT_TRUE(p.predict(0x100));
}

TEST(Bimodal, AliasedBranchesInterfere)
{
    // Two branches mapping to the same entry with opposite bias miss
    // often; the same pair on distinct entries converges.
    BranchPc hot = 0x400000;
    BranchPc alias = hot + 256 * 8; // same (pc>>3)%256
    std::vector<std::pair<BranchPc, bool>> stream;
    for (int i = 0; i < 2000; ++i) {
        stream.emplace_back(hot, true);
        stream.emplace_back(alias, false);
    }
    BimodalPredictor aliased(std::make_unique<ModuloIndexer>(256), 2);
    BimodalPredictor wide(std::make_unique<ModuloIndexer>(65536), 2);
    double aliased_rate = missRate(aliased, stream);
    double wide_rate = missRate(wide, stream);
    // The 2-bit counter oscillates between the weak states: one of
    // the two branches misses every time (~50% overall).
    EXPECT_NEAR(aliased_rate, 0.5, 0.05);
    EXPECT_LT(wide_rate, 0.01);
}

// ------------------------------------------------------------- two-level

TEST(GAg, LearnsGlobalAlternation)
{
    GAgPredictor p(8, 2);
    auto stream = patternStream(0x100, {true, false}, 2000);
    // After warmup the global history disambiguates perfectly.
    std::vector<std::pair<BranchPc, bool>> warm(stream.begin(),
                                                stream.begin() + 100);
    std::vector<std::pair<BranchPc, bool>> rest(stream.begin() + 100,
                                                stream.end());
    missRate(p, warm);
    EXPECT_LT(missRate(p, rest), 0.01);
}

TEST(Gshare, SeparatesBranchesWithSameHistory)
{
    // Two branches, both always seeing the same global history but
    // with opposite outcomes: GAg must fail, gshare separates by PC.
    std::vector<std::pair<BranchPc, bool>> stream;
    for (int i = 0; i < 4000; ++i) {
        stream.emplace_back(0x400000, true);
        stream.emplace_back(0x400008, false);
    }
    GsharePredictor gshare(10, 2, 3);
    double rate = missRate(gshare, stream);
    EXPECT_LT(rate, 0.05);
}

TEST(PAg, LearnsPerBranchPeriodicPattern)
{
    PAgPredictor p(std::make_unique<ModuloIndexer>(1024), 12, 4096, 2);
    auto stream = patternStream(0x400000,
                                {true, true, false, true, false},
                                2000);
    std::vector<std::pair<BranchPc, bool>> warm(stream.begin(),
                                                stream.begin() + 500);
    std::vector<std::pair<BranchPc, bool>> rest(stream.begin() + 500,
                                                stream.end());
    missRate(p, warm);
    EXPECT_LT(missRate(p, rest), 0.01);
}

namespace
{

/**
 * Adversarial interference stream: branch A strictly alternates
 * (predictable from its own history) while branch B, which shares A's
 * conventional BHT entry, resolves randomly and executes a *variable*
 * number of times between A's instances.  The variable count shifts
 * A's outcomes to unpredictable positions of the shared history
 * register, so the PHT cannot isolate them; with a private register A
 * stays perfectly predictable.
 */
std::vector<std::pair<BranchPc, bool>>
aliasedPairStream(BranchPc a, BranchPc b, int pairs)
{
    Pcg32 rng(31);
    std::vector<std::pair<BranchPc, bool>> stream;
    bool a_taken = false;
    for (int i = 0; i < pairs; ++i) {
        a_taken = !a_taken;
        stream.emplace_back(a, a_taken);
        std::uint32_t reps = 1 + rng.nextBounded(3);
        for (std::uint32_t r = 0; r < reps; ++r)
            stream.emplace_back(b, rng.nextBool(0.5));
    }
    return stream;
}

} // namespace

TEST(PAg, BhtAliasingDestroysHistory)
{
    BranchPc a = 0x400000;
    BranchPc b = a + 1024 * 8; // same (pc>>3)%1024 entry
    auto stream = aliasedPairStream(a, b, 4000);

    PAgPredictor aliased(std::make_unique<ModuloIndexer>(1024), 12,
                         4096, 2);
    PAgPredictor ideal(std::make_unique<IdealIndexer>(), 12, 4096, 2);
    double aliased_rate = missRate(aliased, stream);
    double ideal_rate = missRate(ideal, stream);
    // Ideal: A near-perfect, B ~50% of its 2/3 share -> ~0.35.
    // Aliased: A unpredictable too -> noticeably worse.
    EXPECT_LT(ideal_rate, 0.42);
    EXPECT_GT(aliased_rate, ideal_rate + 0.08);
}

TEST(PAg, AllocationRemovesAliasing)
{
    // The same adversarial pair, but an allocator-style assignment
    // gives them distinct BHT entries in a tiny 4-entry table.
    BranchPc a = 0x400000;
    BranchPc b = a + 1024 * 8;
    auto stream = aliasedPairStream(a, b, 4000);

    std::unordered_map<BranchPc, std::uint32_t> assign{{a, 0}, {b, 1}};
    PAgPredictor alloc(std::make_unique<AllocatedIndexer>(assign, 4),
                       12, 4096, 2);
    PAgPredictor ideal(std::make_unique<IdealIndexer>(), 12, 4096, 2);
    EXPECT_NEAR(missRate(alloc, stream), missRate(ideal, stream),
                0.02);
}

TEST(PAg, InfiniteBhtGrowsOnDemand)
{
    PAgPredictor p(std::make_unique<IdealIndexer>(), 12, 4096, 2);
    EXPECT_EQ(p.bhtSize(), 0u);
    for (int i = 0; i < 100; ++i) {
        p.predict(0x400000 + 8ull * i);
        p.update(0x400000 + 8ull * i, true);
    }
    EXPECT_EQ(p.bhtSize(), 100u);
}

TEST(PAs, LearnsPatternsPerSet)
{
    PAsPredictor p(std::make_unique<ModuloIndexer>(1024), 8, 4, 2, 3);
    auto stream = patternStream(0x400000, {true, false, false}, 2000);
    std::vector<std::pair<BranchPc, bool>> warm(stream.begin(),
                                                stream.begin() + 300);
    std::vector<std::pair<BranchPc, bool>> rest(stream.begin() + 300,
                                                stream.end());
    missRate(p, warm);
    EXPECT_LT(missRate(p, rest), 0.01);
}

// -------------------------------------------------------------- static

TEST(StaticPredictors, FixedDirections)
{
    AlwaysTakenPredictor t;
    AlwaysNotTakenPredictor nt;
    EXPECT_TRUE(t.predict(0x1234));
    EXPECT_FALSE(nt.predict(0x1234));
}

TEST(ProfileStatic, FollowsProfileMajorities)
{
    ProfileStaticPredictor p({{0x100, true}, {0x200, false}}, true);
    EXPECT_TRUE(p.predict(0x100));
    EXPECT_FALSE(p.predict(0x200));
    EXPECT_TRUE(p.predict(0x300)); // default
}

// ------------------------------------------------------------ tournament

TEST(Tournament, BeatsWorstComponent)
{
    // Mixed stream: one strongly biased branch (bimodal wins) and one
    // alternating branch (gshare wins).  The tournament should track
    // close to the better component on each.
    Pcg32 rng(9);
    std::vector<std::pair<BranchPc, bool>> stream;
    bool alt = false;
    for (int i = 0; i < 6000; ++i) {
        stream.emplace_back(0x400000, rng.nextBool(0.98));
        alt = !alt;
        stream.emplace_back(0x400008, alt);
    }

    PredictorSpec spec;
    spec.kind = PredictorKind::Tournament;
    spec.bht_entries = 4096;
    spec.history_bits = 10;
    PredictorPtr tournament = makePredictor(spec);

    BimodalPredictor bimodal(std::make_unique<ModuloIndexer>(4096), 2);
    double t_rate = missRate(*tournament, stream);
    double b_rate = missRate(bimodal, stream);
    // Bimodal alone loses ~25% (alternating branch); the tournament
    // should do much better.
    EXPECT_GT(b_rate, 0.2);
    EXPECT_LT(t_rate, 0.1);
}

// --------------------------------------------------------------- factory

TEST(Factory, BuildsEveryKind)
{
    for (PredictorKind kind :
         {PredictorKind::AlwaysTaken, PredictorKind::AlwaysNotTaken,
          PredictorKind::Bimodal, PredictorKind::GAg,
          PredictorKind::Gshare, PredictorKind::PAgModulo,
          PredictorKind::PAgAllocated, PredictorKind::PAgIdeal,
          PredictorKind::PAs, PredictorKind::Tournament,
          PredictorKind::ProfileStatic}) {
        PredictorSpec spec;
        spec.kind = kind;
        PredictorPtr p = makePredictor(spec);
        ASSERT_NE(p, nullptr) << predictorKindName(kind);
        // Smoke: runs a few dynamic branches without dying.
        for (int i = 0; i < 32; ++i) {
            p->predict(0x400000 + 8ull * (i % 4));
            p->update(0x400000 + 8ull * (i % 4), i % 2 == 0);
        }
        EXPECT_FALSE(p->name().empty());
        p->reset();
    }
}

TEST(Factory, PaperSpecsMatchPaperParameters)
{
    PredictorSpec base = paperBaselineSpec();
    EXPECT_EQ(base.kind, PredictorKind::PAgModulo);
    EXPECT_EQ(base.bht_entries, 1024u);
    EXPECT_EQ(base.pht_entries, 4096u);
    EXPECT_EQ(base.history_bits, 12u);

    PredictorSpec ideal = interferenceFreeSpec();
    EXPECT_EQ(ideal.kind, PredictorKind::PAgIdeal);

    PredictorSpec alloc = allocatedSpec({{0x400000, 5}}, 128);
    EXPECT_EQ(alloc.kind, PredictorKind::PAgAllocated);
    EXPECT_EQ(alloc.bht_entries, 128u);
    EXPECT_EQ(alloc.assignment.size(), 1u);
}

TEST(Predictors, ResetRestoresInitialBehavior)
{
    // Train hard one way, reset, and verify the first prediction
    // matches a freshly constructed predictor's.
    PredictorSpec spec = paperBaselineSpec();
    PredictorPtr trained = makePredictor(spec);
    PredictorPtr fresh = makePredictor(spec);
    for (int i = 0; i < 1000; ++i)
        trained->update(0x400000, false);
    trained->reset();
    EXPECT_EQ(trained->predict(0x400000), fresh->predict(0x400000));
}

TEST(Predictors, IdealPAgResetDropsGrownFootprint)
{
    // An unbounded (ideal) indexer grows the BHT on demand; reset()
    // must hand that memory back and forget the id assignments, so a
    // reset predictor is indistinguishable from a fresh one.
    PAgPredictor p(std::make_unique<IdealIndexer>(), 12, 4096, 2);
    for (int i = 0; i < 500; ++i) {
        BranchPc pc = 0x400000 + 8ull * i;
        p.predict(pc);
        p.update(pc, i % 2 == 0);
    }
    EXPECT_EQ(p.bhtSize(), 500u);

    p.reset();
    EXPECT_EQ(p.bhtSize(), 0u);

    // After reset the indexer re-assigns ids from scratch: replaying
    // the same stream mispredicts exactly like a fresh predictor.
    PAgPredictor fresh(std::make_unique<IdealIndexer>(), 12, 4096, 2);
    Pcg32 rng(77);
    int reset_misses = 0, fresh_misses = 0;
    for (int i = 0; i < 4000; ++i) {
        BranchPc pc = 0x400000 + 8ull * rng.nextBounded(64);
        bool taken = rng.nextBool(0.6);
        reset_misses += p.predict(pc) != taken;
        fresh_misses += fresh.predict(pc) != taken;
        p.update(pc, taken);
        fresh.update(pc, taken);
    }
    EXPECT_EQ(reset_misses, fresh_misses);
    EXPECT_EQ(p.bhtSize(), fresh.bhtSize());
}

TEST(Predictors, IdealPAsResetMatchesFresh)
{
    // Same footprint contract for PAs over an unbounded indexer.
    PAsPredictor p(std::make_unique<IdealIndexer>(), 8, 4, 2, 3);
    for (int i = 0; i < 300; ++i) {
        BranchPc pc = 0x400000 + 8ull * i;
        p.predict(pc);
        p.update(pc, true);
    }
    p.reset();

    PAsPredictor fresh(std::make_unique<IdealIndexer>(), 8, 4, 2, 3);
    Pcg32 rng(79);
    int reset_misses = 0, fresh_misses = 0;
    for (int i = 0; i < 4000; ++i) {
        BranchPc pc = 0x400000 + 8ull * rng.nextBounded(64);
        bool taken = rng.nextBool(0.7);
        reset_misses += p.predict(pc) != taken;
        fresh_misses += fresh.predict(pc) != taken;
        p.update(pc, taken);
        fresh.update(pc, taken);
    }
    EXPECT_EQ(reset_misses, fresh_misses);
}

// ------------------------------------------- spec string parsing

TEST(SpecParse, EveryKindKeyword)
{
    EXPECT_EQ(parsePredictorSpec("taken").kind,
              PredictorKind::AlwaysTaken);
    EXPECT_EQ(parsePredictorSpec("not-taken").kind,
              PredictorKind::AlwaysNotTaken);
    EXPECT_EQ(parsePredictorSpec("bimodal").kind,
              PredictorKind::Bimodal);
    EXPECT_EQ(parsePredictorSpec("gag").kind, PredictorKind::GAg);
    EXPECT_EQ(parsePredictorSpec("gshare").kind,
              PredictorKind::Gshare);
    EXPECT_EQ(parsePredictorSpec("pag").kind,
              PredictorKind::PAgModulo);
    EXPECT_EQ(parsePredictorSpec("pag-ideal").kind,
              PredictorKind::PAgIdeal);
    EXPECT_EQ(parsePredictorSpec("pas").kind, PredictorKind::PAs);
    EXPECT_EQ(parsePredictorSpec("tournament").kind,
              PredictorKind::Tournament);
    EXPECT_EQ(parsePredictorSpec("agree").kind, PredictorKind::Agree);
}

TEST(SpecParse, ParametersOverrideDefaults)
{
    PredictorSpec spec =
        parsePredictorSpec("pag:bht=256,hist=10,pht=8192,ctr=3");
    EXPECT_EQ(spec.kind, PredictorKind::PAgModulo);
    EXPECT_EQ(spec.bht_entries, 256u);
    EXPECT_EQ(spec.history_bits, 10u);
    EXPECT_EQ(spec.pht_entries, 8192u);
    EXPECT_EQ(spec.counter_bits, 3u);

    PredictorSpec pas = parsePredictorSpec("pas:bht=512,sets=8");
    EXPECT_EQ(pas.pht_sets, 8u);
    EXPECT_EQ(pas.bht_entries, 512u);

    PredictorSpec shifted = parsePredictorSpec("gshare:shift=2");
    EXPECT_EQ(shifted.insn_shift, 2u);

    // Untouched fields keep PredictorSpec's defaults.
    PredictorSpec defaults = parsePredictorSpec("gshare");
    PredictorSpec reference;
    EXPECT_EQ(defaults.bht_entries, reference.bht_entries);
    EXPECT_EQ(defaults.history_bits, reference.history_bits);
}

TEST(SpecParse, ForgivingAboutCaseAndWhitespace)
{
    PredictorSpec spec =
        parsePredictorSpec("  PAg : BHT=64 , Hist=5  ");
    EXPECT_EQ(spec.kind, PredictorKind::PAgModulo);
    EXPECT_EQ(spec.bht_entries, 64u);
    EXPECT_EQ(spec.history_bits, 5u);
}

TEST(SpecParse, ParsedSpecBuildsARunnablePredictor)
{
    PredictorPtr p = makePredictor(
        parsePredictorSpec("tournament:bht=128,hist=8"));
    for (int i = 0; i < 100; ++i)
        p->update(0x400000 + 8 * (i % 4), (i % 2) == 0);
    (void)p->predict(0x400000);
}

TEST(SpecParseDeath, MalformedSpecsAreFatal)
{
    EXPECT_EXIT(parsePredictorSpec(""),
                ::testing::ExitedWithCode(1), "empty predictor spec");
    EXPECT_EXIT(parsePredictorSpec("frobnicator"),
                ::testing::ExitedWithCode(1), "unknown kind");
    EXPECT_EXIT(parsePredictorSpec("pag:"),
                ::testing::ExitedWithCode(1), "empty parameter list");
    EXPECT_EXIT(parsePredictorSpec("pag:bht"),
                ::testing::ExitedWithCode(1), "form key=value");
    EXPECT_EXIT(parsePredictorSpec("pag:zzz=4"),
                ::testing::ExitedWithCode(1), "unknown key");
    EXPECT_EXIT(parsePredictorSpec("pag:bht=abc"),
                ::testing::ExitedWithCode(1), "unsigned integer");
    EXPECT_EXIT(parsePredictorSpec("pag:hist=40"),
                ::testing::ExitedWithCode(1), "hist");
    EXPECT_EXIT(parsePredictorSpec("pag:ctr=0"),
                ::testing::ExitedWithCode(1), "ctr");
}
