/**
 * @file
 * Cross-cutting property tests: invariants that must hold for every
 * predictor family, every working-set definition, and the allocator
 * over randomized inputs (parameterized sweeps).
 */

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "test_helpers.hh"

#include "core/allocation.hh"
#include "core/working_set.hh"
#include "predict/factory.hh"
#include "profile/interleave.hh"
#include "profile/shard.hh"
#include "reference/bpred_sim.hh"
#include "reference/make_predictor.hh"
#include "trace/trace.hh"
#include "util/random.hh"

using namespace bwsa;

namespace
{

/** Random but realistic trace: phased pc pools, biased outcomes. */
MemoryTrace
randomTrace(std::uint64_t seed, std::size_t records)
{
    Pcg32 rng(seed);
    MemoryTrace trace;
    std::uint64_t ts = 0;
    std::uint64_t pool_base = 0x400000;
    for (std::size_t i = 0; i < records; ++i) {
        if (i % 4096 == 0 && rng.nextBool(0.3))
            pool_base += 0x2000; // drift to a new region
        BranchPc pc = pool_base + 8ull * rng.nextBounded(64);
        ts += 1 + rng.nextBounded(8);
        trace.onBranch({pc, ts, rng.nextBool(0.7)});
    }
    return trace;
}

/**
 * Random conflict graph with execution counts drawn from
 * @p exec_levels values (few levels mean many ties in heat order);
 * each node is left without edges with probability @p isolated.
 */
ConflictGraph
randomGraph(std::uint64_t seed, std::size_t nodes, double density,
            std::uint32_t exec_levels = 1000, double isolated = 0.0)
{
    Pcg32 rng(seed);
    ConflictGraph g;
    std::vector<bool> lonely(nodes, false);
    for (std::size_t i = 0; i < nodes; ++i) {
        NodeId id = g.addOrGetNode(0x1000 + 8 * i);
        std::uint32_t execs = 1 + rng.nextBounded(exec_levels);
        for (std::uint32_t e = 0; e < execs; ++e)
            testhelpers::recordExecution(g, id, rng.nextBool(0.6));
        if (isolated > 0.0)
            lonely[i] = rng.nextBool(isolated);
    }
    for (NodeId a = 0; a < nodes; ++a)
        for (NodeId b = a + 1; b < nodes; ++b)
            if (rng.nextBool(density) && !lonely[a] && !lonely[b])
                g.addInterleave(a, b, 100 + rng.nextBounded(5000));
    return g;
}

} // namespace

// --------------------------------------------------- predictor invariants

class PredictorInvariants
    : public ::testing::TestWithParam<PredictorKind>
{
};

TEST_P(PredictorInvariants, DeterministicAcrossRuns)
{
    MemoryTrace trace = randomTrace(11, 20000);
    PredictorSpec spec;
    spec.kind = GetParam();
    spec.bht_entries = 256;

    PredictorPtr a = makePredictor(spec);
    PredictorPtr b = makePredictor(spec);
    PredictionStats ra = simulatePredictor(trace, *a);
    PredictionStats rb = simulatePredictor(trace, *b);
    EXPECT_EQ(ra.mispredicts.events(), rb.mispredicts.events());
}

TEST_P(PredictorInvariants, ResetEqualsFresh)
{
    MemoryTrace trace = randomTrace(13, 10000);
    PredictorSpec spec;
    spec.kind = GetParam();
    spec.bht_entries = 256;

    PredictorPtr reused = makePredictor(spec);
    simulatePredictor(trace, *reused); // train
    reused->reset();
    PredictionStats after_reset = simulatePredictor(trace, *reused);

    PredictorPtr fresh = makePredictor(spec);
    PredictionStats fresh_stats = simulatePredictor(trace, *fresh);
    EXPECT_EQ(after_reset.mispredicts.events(),
              fresh_stats.mispredicts.events())
        << predictorKindName(GetParam());
}

TEST_P(PredictorInvariants, BeatsCoinFlipOnBiasedStream)
{
    // Every dynamic predictor must exploit a 70% taken bias.
    MemoryTrace trace = randomTrace(17, 30000);
    PredictorSpec spec;
    spec.kind = GetParam();
    spec.bht_entries = 1024;
    PredictorPtr p = makePredictor(spec);
    PredictionStats stats = simulatePredictor(trace, *p);
    EXPECT_LT(stats.mispredictPercent(), 48.0)
        << predictorKindName(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, PredictorInvariants,
    ::testing::Values(PredictorKind::Bimodal, PredictorKind::GAg,
                      PredictorKind::Gshare, PredictorKind::PAgModulo,
                      PredictorKind::PAgIdeal, PredictorKind::PAs,
                      PredictorKind::Tournament, PredictorKind::Agree),
    [](const ::testing::TestParamInfo<PredictorKind> &info) {
        std::string name = predictorKindName(info.param);
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

// ----------------------------------------------------- tracker invariants

class TrackerSeeds : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(TrackerSeeds, IncrementsEqualEdgeMass)
{
    // Every pairwise increment lands on exactly one edge counter, so
    // the sum of all edge counts equals the tracker's increment count.
    MemoryTrace trace = randomTrace(GetParam(), 30000);
    ConflictGraph g;
    InterleaveTracker tracker(g);
    trace.replay(tracker);

    std::uint64_t edge_mass = 0;
    for (const auto &[key, count] : g.edges())
        edge_mass += count;
    EXPECT_EQ(edge_mass, tracker.pairIncrements());
}

TEST_P(TrackerSeeds, ExecutionCountsMatchTrace)
{
    MemoryTrace trace = randomTrace(GetParam() + 100, 20000);
    ConflictGraph g = profileTrace(trace);
    EXPECT_EQ(g.totalExecutions(), trace.size());

    std::uint64_t node_sum = 0;
    for (const ConflictNode &node : g.nodes())
        node_sum += node.executed;
    EXPECT_EQ(node_sum, trace.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrackerSeeds,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u));

// ------------------------------------------------ working-set invariants

class WorkingSetSeeds : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(WorkingSetSeeds, EveryDefinitionCoversEveryNode)
{
    ConflictGraph g = randomGraph(GetParam(), 60, 0.15);
    for (WorkingSetDefinition def :
         {WorkingSetDefinition::MaximalClique,
          WorkingSetDefinition::SeededClique,
          WorkingSetDefinition::GreedyPartition,
          WorkingSetDefinition::ConnectedComponent}) {
        WorkingSetResult result = findWorkingSets(g, def);
        std::set<NodeId> covered;
        for (const WorkingSet &set : result.sets) {
            EXPECT_FALSE(set.empty());
            EXPECT_TRUE(std::is_sorted(set.begin(), set.end()));
            covered.insert(set.begin(), set.end());
        }
        EXPECT_EQ(covered.size(), g.nodeCount())
            << workingSetDefinitionName(def);
    }
}

TEST_P(WorkingSetSeeds, CliqueDefinitionsYieldCliques)
{
    ConflictGraph g = randomGraph(GetParam() + 50, 40, 0.25);
    for (WorkingSetDefinition def :
         {WorkingSetDefinition::MaximalClique,
          WorkingSetDefinition::SeededClique,
          WorkingSetDefinition::GreedyPartition}) {
        WorkingSetResult result = findWorkingSets(g, def);
        for (const WorkingSet &set : result.sets)
            for (std::size_t i = 0; i < set.size(); ++i)
                for (std::size_t j = i + 1; j < set.size(); ++j)
                    ASSERT_GT(g.interleaveCount(set[i], set[j]), 0u)
                        << workingSetDefinitionName(def);
    }
}

TEST_P(WorkingSetSeeds, PartitionNeverExceedsComponentSize)
{
    ConflictGraph g = randomGraph(GetParam() + 200, 50, 0.1);
    WorkingSetResult partition =
        findWorkingSets(g, WorkingSetDefinition::GreedyPartition);
    WorkingSetResult components =
        findWorkingSets(g, WorkingSetDefinition::ConnectedComponent);
    WorkingSetStats sp = computeWorkingSetStats(g, partition);
    WorkingSetStats sc = computeWorkingSetStats(g, components);
    EXPECT_LE(sp.max_size, sc.max_size);
    EXPECT_GE(partition.sets.size(), components.sets.size());
}

namespace
{

/**
 * Straight-line reference of every working-set definition, written
 * against interleaveCount() alone so it shares no neighbour-list code
 * with the library.
 */
class ReferenceWorkingSets
{
  public:
    explicit ReferenceWorkingSets(const ConflictGraph &g) : _g(g) {}

    std::vector<WorkingSet>
    seededCliques() const
    {
        std::vector<WorkingSet> out;
        for (NodeId seed = 0; seed < n(); ++seed) {
            WorkingSet set{seed};
            std::vector<NodeId> candidates = neighbours(seed);
            while (!candidates.empty()) {
                NodeId best = *std::min_element(
                    candidates.begin(), candidates.end(),
                    [this](NodeId a, NodeId b) { return hotter(a, b); });
                set.push_back(best);
                std::erase_if(candidates, [&](NodeId c) {
                    return !adjacent(c, best);
                });
            }
            std::sort(set.begin(), set.end());
            if (std::find(out.begin(), out.end(), set) == out.end())
                out.push_back(set);
        }
        return out;
    }

    std::vector<WorkingSet>
    greedyPartition() const
    {
        std::vector<NodeId> order(n());
        for (NodeId v = 0; v < n(); ++v)
            order[v] = v;
        std::sort(order.begin(), order.end(),
                  [this](NodeId a, NodeId b) { return hotter(a, b); });
        std::vector<bool> assigned(n(), false);
        std::vector<WorkingSet> out;
        for (NodeId seed : order) {
            if (assigned[seed])
                continue;
            assigned[seed] = true;
            WorkingSet set{seed};
            std::vector<NodeId> candidates;
            for (NodeId v : order)
                if (!assigned[v] && adjacent(seed, v))
                    candidates.push_back(v);
            for (NodeId c : candidates) {
                if (std::all_of(set.begin(), set.end(), [&](NodeId m) {
                        return adjacent(c, m);
                    })) {
                    set.push_back(c);
                    assigned[c] = true;
                }
            }
            std::sort(set.begin(), set.end());
            out.push_back(set);
        }
        return out;
    }

    /** Components, each sorted, in order of their smallest member. */
    std::vector<WorkingSet>
    connectedComponents() const
    {
        std::vector<NodeId> label(n(), invalid_node);
        std::vector<WorkingSet> out;
        for (NodeId start = 0; start < n(); ++start) {
            if (label[start] != invalid_node)
                continue;
            WorkingSet component{start};
            label[start] = start;
            for (std::size_t i = 0; i < component.size(); ++i)
                for (NodeId w : neighbours(component[i]))
                    if (label[w] == invalid_node) {
                        label[w] = start;
                        component.push_back(w);
                    }
            std::sort(component.begin(), component.end());
            out.push_back(component);
        }
        return out;
    }

    /**
     * Every maximal clique: grow every clique in ascending id order
     * and keep those that no other node extends.  Exponential only in
     * the clique sizes, so sparse graphs of any node count work.
     */
    std::set<WorkingSet>
    maximalCliques() const
    {
        std::set<WorkingSet> out;
        WorkingSet set;
        growCliques(set, 0, out);
        return out;
    }

  private:
    NodeId n() const { return static_cast<NodeId>(_g.nodeCount()); }

    bool
    adjacent(NodeId a, NodeId b) const
    {
        return a != b && _g.interleaveCount(a, b) != 0;
    }

    std::vector<NodeId>
    neighbours(NodeId v) const
    {
        std::vector<NodeId> out;
        for (NodeId u = 0; u < n(); ++u)
            if (adjacent(v, u))
                out.push_back(u);
        return out;
    }

    bool
    adjacentToAll(NodeId v, const WorkingSet &set) const
    {
        return std::all_of(set.begin(), set.end(),
                           [&](NodeId m) { return adjacent(v, m); });
    }

    /** Visit every clique that extends @p set by nodes >= @p from. */
    void
    growCliques(WorkingSet &set, NodeId from,
                std::set<WorkingSet> &out) const
    {
        bool maximal = !set.empty();
        for (NodeId v = 0; v < n() && maximal; ++v)
            if (std::find(set.begin(), set.end(), v) == set.end() &&
                adjacentToAll(v, set))
                maximal = false;
        if (maximal)
            out.insert(set);
        for (NodeId v = from; v < n(); ++v) {
            if (!adjacentToAll(v, set))
                continue;
            set.push_back(v);
            growCliques(set, v + 1, out);
            set.pop_back();
        }
    }

    /** More executions first, then the lower id. */
    bool
    hotter(NodeId a, NodeId b) const
    {
        std::uint64_t ea = _g.node(a).executed;
        std::uint64_t eb = _g.node(b).executed;
        return ea != eb ? ea > eb : a < b;
    }

    const ConflictGraph &_g;
};

} // namespace

TEST_P(WorkingSetSeeds, DefinitionsMatchReference)
{
    ConflictGraph g = randomGraph(GetParam(), 60, 0.15);
    ReferenceWorkingSets ref(g);
    EXPECT_EQ(findWorkingSets(g, WorkingSetDefinition::SeededClique).sets,
              ref.seededCliques());
    EXPECT_EQ(
        findWorkingSets(g, WorkingSetDefinition::GreedyPartition).sets,
        ref.greedyPartition());
    EXPECT_EQ(
        findWorkingSets(g, WorkingSetDefinition::ConnectedComponent)
            .sets,
        ref.connectedComponents());

    ConflictGraph small = randomGraph(GetParam() + 300, 14, 0.45);
    WorkingSetResult cliques =
        findWorkingSets(small, WorkingSetDefinition::MaximalClique);
    EXPECT_FALSE(cliques.truncated);
    std::set<WorkingSet> got(cliques.sets.begin(), cliques.sets.end());
    EXPECT_EQ(got.size(), cliques.sets.size()) << "duplicate clique";
    EXPECT_EQ(got, ReferenceWorkingSets(small).maximalCliques());
}

TEST_P(WorkingSetSeeds, DefinitionsMatchReferenceAcrossWords)
{
    // Node counts at, just past and well past a 64-bit word, so a
    // bit row spans one to four words; few execution levels, so the
    // id tie-break decides much of the heat order; isolated nodes,
    // which are singleton sets under every definition.
    struct Shape
    {
        std::size_t nodes;
        double density;
        std::uint32_t exec_levels;
        double isolated;
    };
    for (Shape shape : {Shape{64, 0.15, 1000, 0.0},
                        Shape{65, 0.3, 1000, 0.0},
                        Shape{65, 0.2, 2, 0.1},
                        Shape{130, 0.2, 3, 0.0},
                        Shape{130, 0.05, 1, 0.3},
                        Shape{200, 0.1, 1000, 0.2},
                        Shape{200, 0.4, 4, 0.05}}) {
        SCOPED_TRACE(::testing::Message()
                     << shape.nodes << " nodes, density "
                     << shape.density << ", " << shape.exec_levels
                     << " exec levels, isolated " << shape.isolated);
        ConflictGraph g =
            randomGraph(GetParam() + shape.nodes, shape.nodes,
                        shape.density, shape.exec_levels, shape.isolated);
        ReferenceWorkingSets ref(g);
        EXPECT_EQ(
            findWorkingSets(g, WorkingSetDefinition::SeededClique).sets,
            ref.seededCliques());
        EXPECT_EQ(
            findWorkingSets(g, WorkingSetDefinition::GreedyPartition)
                .sets,
            ref.greedyPartition());
        EXPECT_EQ(
            findWorkingSets(g, WorkingSetDefinition::ConnectedComponent)
                .sets,
            ref.connectedComponents());
    }
}

TEST_P(WorkingSetSeeds, SparseMaximalCliquesMatchReference)
{
    // 150 nodes span three words; sparse enough that the reference
    // can grow every clique.
    ConflictGraph g = randomGraph(GetParam() + 400, 150, 0.04, 5, 0.1);
    WorkingSetResult cliques =
        findWorkingSets(g, WorkingSetDefinition::MaximalClique);
    EXPECT_FALSE(cliques.truncated);
    std::set<WorkingSet> got(cliques.sets.begin(), cliques.sets.end());
    EXPECT_EQ(got.size(), cliques.sets.size()) << "duplicate clique";
    EXPECT_EQ(got, ReferenceWorkingSets(g).maximalCliques());
}

INSTANTIATE_TEST_SUITE_P(Seeds, WorkingSetSeeds,
                         ::testing::Values(1u, 7u, 21u, 42u));

// -------------------------------------------------- allocator invariants

class AllocatorSeeds : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(AllocatorSeeds, ResidualWeaklyImprovesWithTableSize)
{
    ConflictGraph g = randomGraph(GetParam(), 80, 0.2);
    AllocationConfig config;
    std::uint64_t previous = ~std::uint64_t(0);
    for (std::uint64_t size : {4ull, 8ull, 16ull, 32ull, 128ull}) {
        AllocationResult result = allocateBranches(g, size, config);
        // Greedy coloring is not strictly monotone, but a table 2x
        // larger must not be more than marginally worse.
        EXPECT_LE(result.residual_conflict,
                  previous + previous / 4 + 100)
            << "size " << size;
        previous = result.residual_conflict;
    }
    // With one entry per node the coloring must be perfect.
    AllocationResult roomy = allocateBranches(g, 80, config);
    EXPECT_EQ(roomy.residual_conflict, 0u);
}

TEST_P(AllocatorSeeds, ProperColoringBelowThresholdEdges)
{
    // Any two branches with a thresholded conflict that end up in the
    // same entry must have been counted in residual_conflict; verify
    // by recomputing the residual from the assignment.
    ConflictGraph g = randomGraph(GetParam() + 10, 50, 0.2);
    AllocationConfig config;
    AllocationResult result = allocateBranches(g, 12, config);

    std::uint64_t recomputed = 0;
    for (const auto &[key, count] : g.edges()) {
        if (count < config.edge_threshold)
            continue;
        auto [a, b] = ConflictGraph::unpackEdge(key);
        if (result.assignment.at(g.node(a).pc) ==
            result.assignment.at(g.node(b).pc))
            recomputed += count;
    }
    EXPECT_EQ(recomputed, result.residual_conflict);
}

TEST_P(AllocatorSeeds, ClassificationNeverIncreasesRequiredSize)
{
    ConflictGraph g = randomGraph(GetParam() + 77, 60, 0.25);
    AllocationConfig plain;
    AllocationConfig classified;
    classified.use_classification = true;

    RequiredSizeResult rp = requiredTableSize(g, plain, 64, 256);
    RequiredSizeResult rc = requiredTableSize(g, classified, 64, 256);
    ASSERT_TRUE(rp.achieved);
    ASSERT_TRUE(rc.achieved);
    // Classification removes constraints (plus 2 reserved entries).
    EXPECT_LE(rc.required_entries, rp.required_entries + 2);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocatorSeeds,
                         ::testing::Values(3u, 9u, 27u, 81u));

// --------------------------------------------------------- sim invariants

TEST(SimProperty, FanoutPreservesIndependence)
{
    // Predictors sharing one replay must produce the same counts as
    // predictors run on separate replays, for any mix of kinds.
    MemoryTrace trace = randomTrace(99, 15000);

    std::vector<PredictorKind> kinds{
        PredictorKind::Bimodal, PredictorKind::Gshare,
        PredictorKind::PAgModulo, PredictorKind::Agree};

    std::vector<PredictorPtr> together, separate;
    for (PredictorKind kind : kinds) {
        PredictorSpec spec;
        spec.kind = kind;
        together.push_back(makePredictor(spec));
        separate.push_back(makePredictor(spec));
    }
    std::vector<Predictor *> raw;
    for (const PredictorPtr &p : together)
        raw.push_back(p.get());
    std::vector<PredictionStats> shared =
        comparePredictors(trace, raw);

    for (std::size_t i = 0; i < kinds.size(); ++i) {
        PredictionStats alone =
            simulatePredictor(trace, *separate[i]);
        EXPECT_EQ(shared[i].mispredicts.events(),
                  alone.mispredicts.events())
            << predictorKindName(kinds[i]);
    }
}
