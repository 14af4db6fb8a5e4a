/**
 * @file
 * Tests for the paper's core machinery: working set extraction under
 * every definition, taken-rate classification, the graph-coloring
 * branch allocator, the conflict metrics behind Tables 3/4, and the
 * end-to-end allocation pipeline.
 */

#include <algorithm>
#include <set>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "test_helpers.hh"

#include "core/allocation.hh"
#include "core/classification.hh"
#include "core/pipeline.hh"
#include "core/working_set.hh"
#include "util/random.hh"
#include "workload/builder.hh"
#include "workload/executor.hh"
#include "workload/generator.hh"

using namespace bwsa;

namespace
{

/**
 * Build a graph from an explicit edge list; node i gets pc
 * 0x1000 + 8*i and execution count exec_base * (i + 1).
 */
ConflictGraph
graphOf(std::size_t nodes,
        const std::vector<std::tuple<NodeId, NodeId, std::uint64_t>>
            &edges,
        std::uint64_t exec_base = 10)
{
    ConflictGraph g;
    for (std::size_t i = 0; i < nodes; ++i) {
        NodeId id = g.addOrGetNode(0x1000 + 8 * i);
        for (std::uint64_t e = 0; e < exec_base * (i + 1); ++e)
            testhelpers::recordExecution(g, id, true);
    }
    for (auto [a, b, w] : edges)
        g.addInterleave(a, b, w);
    return g;
}

/** Sorted sizes of all sets, for order-insensitive comparison. */
std::vector<std::size_t>
setSizes(const WorkingSetResult &result)
{
    std::vector<std::size_t> sizes;
    for (const WorkingSet &set : result.sets)
        sizes.push_back(set.size());
    std::sort(sizes.begin(), sizes.end());
    return sizes;
}

bool
isClique(const ConflictGraph &g, const WorkingSet &set)
{
    for (std::size_t i = 0; i < set.size(); ++i)
        for (std::size_t j = i + 1; j < set.size(); ++j)
            if (g.interleaveCount(set[i], set[j]) == 0)
                return false;
    return true;
}

} // namespace

// ------------------------------------------------------------ working sets

TEST(WorkingSets, TriangleAndEdge)
{
    // Triangle {0,1,2} + edge {3,4} + isolated {5}.
    ConflictGraph g = graphOf(
        6, {{0, 1, 500}, {1, 2, 500}, {0, 2, 500}, {3, 4, 500}});

    for (WorkingSetDefinition def :
         {WorkingSetDefinition::MaximalClique,
          WorkingSetDefinition::SeededClique,
          WorkingSetDefinition::GreedyPartition,
          WorkingSetDefinition::ConnectedComponent}) {
        WorkingSetResult result = findWorkingSets(g, def);
        EXPECT_EQ(setSizes(result),
                  (std::vector<std::size_t>{1, 2, 3}))
            << workingSetDefinitionName(def);
        EXPECT_FALSE(result.truncated);
    }
}

TEST(WorkingSets, MaximalCliqueFindsOverlaps)
{
    // Two triangles sharing an edge: {0,1,2} and {1,2,3}.  Clique
    // enumeration reports both; a partition cannot.
    ConflictGraph g = graphOf(4, {{0, 1, 1},
                                  {1, 2, 1},
                                  {0, 2, 1},
                                  {1, 3, 1},
                                  {2, 3, 1}});
    WorkingSetResult cliques =
        findWorkingSets(g, WorkingSetDefinition::MaximalClique);
    EXPECT_EQ(setSizes(cliques), (std::vector<std::size_t>{3, 3}));

    WorkingSetResult partition =
        findWorkingSets(g, WorkingSetDefinition::GreedyPartition);
    EXPECT_EQ(partition.sets.size(), 2u);
    std::size_t covered = 0;
    for (const WorkingSet &set : partition.sets)
        covered += set.size();
    EXPECT_EQ(covered, 4u); // partition covers each node once
}

TEST(WorkingSets, SeededCliqueSetsAreMaximalCliques)
{
    // Random-ish graph; every reported set must be a clique that no
    // neighbour extends.
    ConflictGraph g = graphOf(8, {{0, 1, 1},
                                  {0, 2, 1},
                                  {1, 2, 1},
                                  {2, 3, 1},
                                  {3, 4, 1},
                                  {4, 5, 1},
                                  {3, 5, 1},
                                  {5, 6, 1},
                                  {6, 7, 1}});
    WorkingSetResult result =
        findWorkingSets(g, WorkingSetDefinition::SeededClique);
    for (const WorkingSet &set : result.sets) {
        EXPECT_TRUE(isClique(g, set));
        // Maximality: no node adjacent to every member.
        for (NodeId v = 0; v < g.nodeCount(); ++v) {
            if (std::binary_search(set.begin(), set.end(), v))
                continue;
            bool adjacent_to_all = true;
            for (NodeId m : set)
                if (g.interleaveCount(v, m) == 0) {
                    adjacent_to_all = false;
                    break;
                }
            EXPECT_FALSE(adjacent_to_all)
                << "set extensible by node " << v;
        }
    }
}

TEST(WorkingSets, GreedyPartitionIsDisjointCliqueCover)
{
    ConflictGraph g = graphOf(10, {{0, 1, 1},
                                   {0, 2, 1},
                                   {1, 2, 1},
                                   {3, 4, 1},
                                   {5, 6, 1},
                                   {6, 7, 1},
                                   {5, 7, 1},
                                   {7, 8, 1}});
    WorkingSetResult result =
        findWorkingSets(g, WorkingSetDefinition::GreedyPartition);
    std::set<NodeId> seen;
    for (const WorkingSet &set : result.sets) {
        EXPECT_TRUE(isClique(g, set));
        for (NodeId v : set)
            EXPECT_TRUE(seen.insert(v).second)
                << "node " << v << " in two sets";
    }
    EXPECT_EQ(seen.size(), g.nodeCount());
}

TEST(WorkingSets, ConnectedComponentsUpperBoundCliques)
{
    // A path 0-1-2-3 is one component but max clique 2.
    ConflictGraph g =
        graphOf(4, {{0, 1, 1}, {1, 2, 1}, {2, 3, 1}});
    WorkingSetResult comps =
        findWorkingSets(g, WorkingSetDefinition::ConnectedComponent);
    EXPECT_EQ(setSizes(comps), (std::vector<std::size_t>{4}));
    WorkingSetResult cliques =
        findWorkingSets(g, WorkingSetDefinition::MaximalClique);
    for (const WorkingSet &set : cliques.sets)
        EXPECT_LE(set.size(), 2u);
}

TEST(WorkingSets, EnumerationCapTruncates)
{
    // A dense-ish noisy graph with a tiny expansion budget.
    std::vector<std::tuple<NodeId, NodeId, std::uint64_t>> edges;
    for (NodeId a = 0; a < 20; ++a)
        for (NodeId b = a + 1; b < 20; ++b)
            if ((a * 7 + b * 13) % 5 != 0)
                edges.emplace_back(a, b, 1);
    ConflictGraph g = graphOf(20, edges);

    WorkingSetLimits limits;
    limits.max_expansions = 10;
    WorkingSetResult result = findWorkingSets(
        g, WorkingSetDefinition::MaximalClique, limits);
    EXPECT_TRUE(result.truncated);
}

TEST(WorkingSets, SetCapTruncatesEnumeration)
{
    // 130 nodes (rows of three 64-bit words), adjacent unless equal
    // mod 5: a complete 5-partite graph with 26^5 maximal cliques.
    // The expansion budget is unlimited, so max_sets alone stops the
    // search.
    std::vector<std::tuple<NodeId, NodeId, std::uint64_t>> edges;
    for (NodeId a = 0; a < 130; ++a)
        for (NodeId b = a + 1; b < 130; ++b)
            if (a % 5 != b % 5)
                edges.emplace_back(a, b, 1);
    ConflictGraph g = graphOf(130, edges);

    WorkingSetLimits limits;
    limits.max_sets = 25;
    limits.max_expansions = 0;
    WorkingSetResult result = findWorkingSets(
        g, WorkingSetDefinition::MaximalClique, limits);
    EXPECT_TRUE(result.truncated);
    EXPECT_EQ(result.sets.size(), limits.max_sets);
    for (const WorkingSet &set : result.sets)
        EXPECT_TRUE(isClique(g, set));
}

TEST(WorkingSets, StatsComputeStaticAndDynamicAverages)
{
    // Sets of size 3 (hot) and 1 (cold): static avg 2; dynamic avg
    // weighted by execution mass leans toward the hot set.
    ConflictGraph g;
    NodeId a = g.addOrGetNode(0x10);
    NodeId b = g.addOrGetNode(0x18);
    NodeId c = g.addOrGetNode(0x20);
    NodeId d = g.addOrGetNode(0x28);
    for (int i = 0; i < 100; ++i) {
        testhelpers::recordExecution(g, a, true);
        testhelpers::recordExecution(g, b, true);
        testhelpers::recordExecution(g, c, true);
    }
    testhelpers::recordExecution(g, d, false);
    g.addInterleave(a, b, 5);
    g.addInterleave(b, c, 5);
    g.addInterleave(a, c, 5);

    WorkingSetResult result =
        findWorkingSets(g, WorkingSetDefinition::GreedyPartition);
    WorkingSetStats stats = computeWorkingSetStats(g, result);
    EXPECT_EQ(stats.total_sets, 2u);
    EXPECT_DOUBLE_EQ(stats.avg_static_size, 2.0);
    // (3*300 + 1*1) / 301
    EXPECT_NEAR(stats.avg_dynamic_size, 901.0 / 301.0, 1e-9);
    EXPECT_EQ(stats.max_size, 3u);
}

// ---------------------------------------------------------- classification

TEST(Classification, CutoffBoundaries)
{
    BranchClassifier classifier(0.99);
    ConflictNode node;
    node.executed = 1000;

    node.taken = 995; // 99.5% > 99%
    EXPECT_EQ(classifier.classify(node), BranchClass::BiasedTaken);
    node.taken = 990; // exactly 99% is NOT strictly greater
    EXPECT_EQ(classifier.classify(node), BranchClass::Mixed);
    node.taken = 5; // 0.5% < 1%
    EXPECT_EQ(classifier.classify(node), BranchClass::BiasedNotTaken);
    node.taken = 10; // exactly 1%
    EXPECT_EQ(classifier.classify(node), BranchClass::Mixed);
    node.taken = 500;
    EXPECT_EQ(classifier.classify(node), BranchClass::Mixed);
}

TEST(Classification, GraphClassificationAndCounts)
{
    ConflictGraph g;
    NodeId a = g.addOrGetNode(0x10); // always taken
    NodeId b = g.addOrGetNode(0x18); // never taken
    NodeId c = g.addOrGetNode(0x20); // 50/50
    for (int i = 0; i < 200; ++i) {
        testhelpers::recordExecution(g, a, true);
        testhelpers::recordExecution(g, b, false);
        testhelpers::recordExecution(g, c, i % 2 == 0);
    }
    BranchClassifier classifier(0.99);
    std::vector<BranchClass> classes = classifier.classifyGraph(g);
    EXPECT_EQ(classes[a], BranchClass::BiasedTaken);
    EXPECT_EQ(classes[b], BranchClass::BiasedNotTaken);
    EXPECT_EQ(classes[c], BranchClass::Mixed);

    ClassCounts counts = countClasses(classes);
    EXPECT_EQ(counts.biased_taken, 1u);
    EXPECT_EQ(counts.biased_not_taken, 1u);
    EXPECT_EQ(counts.mixed, 1u);
    EXPECT_EQ(counts.total(), 3u);
}

// ---------------------------------------------------------------- allocator

TEST(Allocation, ColorsTriangleWithoutConflictWhenRoomy)
{
    ConflictGraph g = graphOf(
        3, {{0, 1, 500}, {1, 2, 500}, {0, 2, 500}});
    AllocationConfig config;
    AllocationResult result = allocateBranches(g, 8, config);

    EXPECT_EQ(result.residual_conflict, 0u);
    EXPECT_EQ(result.shared_nodes, 0u);
    EXPECT_EQ(result.assignment.size(), 3u);
    std::set<std::uint32_t> entries;
    for (auto [pc, entry] : result.assignment) {
        EXPECT_LT(entry, 8u);
        entries.insert(entry);
    }
    EXPECT_EQ(entries.size(), 3u); // all distinct
}

TEST(Allocation, SharesMinimumWeightWhenTableTooSmall)
{
    // Triangle with one light edge (0-1).  With only 2 entries, the
    // optimal sharing merges nodes 0 and 1, paying weight 10.
    ConflictGraph g =
        graphOf(3, {{0, 1, 110}, {1, 2, 5000}, {0, 2, 5000}});
    AllocationConfig config;
    AllocationResult result = allocateBranches(g, 2, config);
    EXPECT_EQ(result.residual_conflict, 110u);
    EXPECT_EQ(result.shared_nodes, 1u);
    EXPECT_EQ(result.assignment.at(0x1000),
              result.assignment.at(0x1008));
}

TEST(Allocation, ThresholdIgnoresWeakEdges)
{
    // All edges below the threshold: any 1-entry assignment is free.
    ConflictGraph g =
        graphOf(3, {{0, 1, 50}, {1, 2, 50}, {0, 2, 50}});
    AllocationConfig config;
    config.edge_threshold = 100;
    AllocationResult result = allocateBranches(g, 1, config);
    EXPECT_EQ(result.residual_conflict, 0u);
}

TEST(Allocation, ClassificationReservesTwoEntries)
{
    ConflictGraph g;
    NodeId t1 = g.addOrGetNode(0x10);
    NodeId t2 = g.addOrGetNode(0x18);
    NodeId n1 = g.addOrGetNode(0x20);
    NodeId m1 = g.addOrGetNode(0x28);
    NodeId m2 = g.addOrGetNode(0x30);
    for (int i = 0; i < 1000; ++i) {
        testhelpers::recordExecution(g, t1, true);
        testhelpers::recordExecution(g, t2, true);
        testhelpers::recordExecution(g, n1, false);
        testhelpers::recordExecution(g, m1, i % 2 == 0);
        testhelpers::recordExecution(g, m2, i % 3 == 0);
    }
    // Everything conflicts with everything, heavily.
    for (NodeId a = 0; a < 5; ++a)
        for (NodeId b = a + 1; b < 5; ++b)
            g.addInterleave(a, b, 10000);

    AllocationConfig config;
    config.use_classification = true;
    AllocationResult result = allocateBranches(g, 4, config);

    EXPECT_EQ(result.reserved_entries, 2u);
    // Biased-taken branches share entry 0; biased-not-taken entry 1.
    EXPECT_EQ(result.assignment.at(0x10), 0u);
    EXPECT_EQ(result.assignment.at(0x18), 0u);
    EXPECT_EQ(result.assignment.at(0x20), 1u);
    // Mixed branches use the remaining entries (2..3), conflict-free.
    EXPECT_GE(result.assignment.at(0x28), 2u);
    EXPECT_GE(result.assignment.at(0x30), 2u);
    EXPECT_NE(result.assignment.at(0x28), result.assignment.at(0x30));
    EXPECT_EQ(result.residual_conflict, 0u);

    // Without classification the same 4-entry table must pay.
    AllocationConfig plain;
    AllocationResult without = allocateBranches(g, 4, plain);
    EXPECT_GT(without.residual_conflict, 0u);
}

TEST(AllocationDeath, ClassificationNeedsRoomForMixed)
{
    ConflictGraph g = graphOf(2, {{0, 1, 500}});
    AllocationConfig config;
    config.use_classification = true;
    EXPECT_EXIT(allocateBranches(g, 2, config),
                ::testing::ExitedWithCode(1), "reserved entries");
}

TEST(Allocation, ModuloConflictHandComputed)
{
    // Nodes at pcs 0x1000 + 8i; with a 4-entry table, nodes 0 and 4
    // share entry ((pc>>3)%4), as do 1 and 5.
    ConflictGraph g = graphOf(6, {{0, 4, 300},   // same entry
                                  {1, 5, 200},   // same entry
                                  {0, 1, 1000},  // different entries
                                  {2, 3, 40}});  // below threshold
    AllocationConfig config;
    config.edge_threshold = 100;
    EXPECT_EQ(moduloConflict(g, 4, config), 500u);
    // A wide table separates everything.
    EXPECT_EQ(moduloConflict(g, 4096, config), 0u);
}

TEST(Allocation, RequiredSizeBeatsBaselineAndIsMinimal)
{
    // Dense clique of 12 hot nodes: allocation needs enough entries
    // to keep the sharing cost at or below the PC-indexed baseline.
    std::vector<std::tuple<NodeId, NodeId, std::uint64_t>> edges;
    for (NodeId a = 0; a < 12; ++a)
        for (NodeId b = a + 1; b < 12; ++b)
            edges.emplace_back(a, b, 1000);
    // Force baseline conflicts: duplicate-entry pcs in a small table.
    ConflictGraph g = graphOf(12, edges);

    AllocationConfig config;
    RequiredSizeResult req = requiredTableSize(g, config, 8, 64);
    ASSERT_TRUE(req.achieved);
    EXPECT_GT(req.baseline_conflict, 0u); // 12 pcs into 8 entries
    EXPECT_GE(req.required_entries, 1u);
    EXPECT_LE(req.required_entries, 12u);

    // Minimality: one entry fewer must violate the target.
    if (req.required_entries > 1) {
        AllocationResult smaller = allocateBranches(
            g, req.required_entries - 1, config);
        EXPECT_GT(smaller.residual_conflict, req.baseline_conflict);
    }
    EXPECT_LE(req.allocation.residual_conflict, req.baseline_conflict);
}

TEST(Allocation, AssignmentCoversEveryNode)
{
    WorkloadParams params;
    params.structure_seed = 5;
    params.num_procedures = 8;
    Program program = generateProgram(params);
    ExecutorConfig config;
    config.max_instructions = 100000;
    WorkloadTraceSource source(program, config);

    ConflictGraph g = profileTrace(source);
    AllocationConfig alloc_config;
    AllocationResult result = allocateBranches(g, 64, alloc_config);
    EXPECT_EQ(result.assignment.size(), g.nodeCount());
    for (auto [pc, entry] : result.assignment)
        EXPECT_LT(entry, 64u);
}

// ----------------------------------------------------------------- pipeline

TEST(Pipeline, EndToEndProducesUsableSpec)
{
    WorkloadParams params;
    params.structure_seed = 21;
    params.num_procedures = 8;
    params.num_phases = 2;
    params.procs_per_phase = 2;
    Program program = generateProgram(params);
    ExecutorConfig exec_config;
    exec_config.max_instructions = 200000;
    WorkloadTraceSource source(program, exec_config);

    PipelineConfig config;
    AllocationPipeline pipeline(config);
    testhelpers::profileRun(pipeline, source);

    EXPECT_EQ(pipeline.profileCount(), 1u);
    EXPECT_GT(pipeline.graph().nodeCount(), 0u);
    EXPECT_GE(pipeline.lastSelection().coverage(), 0.999 - 1e-9);

    PredictorSpec spec = pipeline.predictorSpec(128);
    EXPECT_EQ(spec.kind, PredictorKind::PAgAllocated);
    EXPECT_EQ(spec.bht_entries, 128u);
    EXPECT_EQ(spec.assignment.size(), pipeline.graph().nodeCount());

    RequiredSizeResult req = pipeline.requiredSize(1024);
    EXPECT_TRUE(req.achieved);
    EXPECT_LE(req.required_entries, 1024u);
}

TEST(Pipeline, CumulativeProfilesMergeInputs)
{
    WorkloadParams params;
    params.structure_seed = 22;
    params.num_procedures = 8;
    params.input_mode_prob = 0.3; // strong input sensitivity
    Program program = generateProgram(params);

    ExecutorConfig input_a, input_b;
    input_a.max_instructions = input_b.max_instructions = 150000;
    input_a.input_seed = 1;
    input_b.input_seed = 0xffffffffULL;
    WorkloadTraceSource source_a(program, input_a);
    WorkloadTraceSource source_b(program, input_b);

    PipelineConfig config;
    AllocationPipeline merged(config);
    testhelpers::profileRun(merged, source_a);
    std::size_t after_a = merged.graph().nodeCount();
    testhelpers::profileRun(merged, source_b);
    EXPECT_EQ(merged.profileCount(), 2u);
    // The merged graph covers at least everything input A exercised.
    EXPECT_GE(merged.graph().nodeCount(), after_a);

    AllocationPipeline only_b(config);
    testhelpers::profileRun(only_b, source_b);
    EXPECT_GE(merged.graph().totalExecutions(),
              only_b.graph().totalExecutions());
}

TEST(PipelineDeath, AllocateBeforeProfileIsFatal)
{
    AllocationPipeline pipeline;
    EXPECT_EXIT(pipeline.allocate(64), ::testing::ExitedWithCode(1),
                "before any profile");
}

// ------------------------------------ coloring against the O(n) scan

namespace
{

/**
 * Reference allocator: the coloring as it was before share
 * candidates came from a cursor/heap, re-filtering the graph per call
 * and picking each share candidate with an O(n) scan (lowest score,
 * lowest id on ties).  Test-only oracle of allocateBranches().
 */
AllocationResult
scanAllocate(const ConflictGraph &graph, std::uint64_t table_size,
             const AllocationConfig &config)
{
    std::size_t n = graph.nodeCount();
    std::vector<BranchClass> classes(n, BranchClass::Mixed);
    if (config.use_classification)
        classes = BranchClassifier(config.bias_cutoff)
                      .classifyGraph(graph);
    std::vector<std::vector<std::pair<NodeId, std::uint64_t>>> adj(n);
    for (const auto &[key, count] : graph.edges()) {
        if (count < config.edge_threshold)
            continue;
        auto [a, b] = ConflictGraph::unpackEdge(key);
        if (classes[a] == classes[b] && classes[a] != BranchClass::Mixed)
            continue;
        adj[a].emplace_back(b, count);
        adj[b].emplace_back(a, count);
    }
    for (auto &list : adj)
        std::sort(list.begin(), list.end());

    AllocationResult result;
    result.table_size = table_size;
    std::uint32_t reserved = config.use_classification ? 2u : 0u;
    result.reserved_entries = reserved;
    std::uint64_t colors = table_size - reserved;
    std::vector<bool> colorable(n);
    for (NodeId v = 0; v < n; ++v)
        colorable[v] = classes[v] == BranchClass::Mixed;

    std::vector<std::size_t> degree(n, 0);
    std::vector<std::uint64_t> weight(n, 0);
    for (NodeId v = 0; v < n; ++v)
        for (const auto &[u, w] : adj[v])
            if (colorable[v] && colorable[u]) {
                ++degree[v];
                weight[v] += w;
            }

    std::vector<NodeId> stack;
    std::vector<bool> removed(n, false);
    std::size_t remaining = std::count(colorable.begin(),
                                       colorable.end(), true);
    std::vector<std::vector<NodeId>> buckets;
    auto bucket_of = [&](NodeId v) {
        if (degree[v] >= buckets.size())
            buckets.resize(degree[v] + 1);
        return degree[v];
    };
    for (NodeId v = 0; v < n; ++v)
        if (colorable[v])
            buckets[bucket_of(v)].push_back(v);

    while (remaining > 0) {
        NodeId pick = invalid_node;
        for (std::size_t d = 0; d < buckets.size() && d < colors &&
                                pick == invalid_node;
             ++d) {
            while (!buckets[d].empty()) {
                NodeId v = buckets[d].back();
                buckets[d].pop_back();
                if (!removed[v] && degree[v] == d) {
                    pick = v;
                    break;
                }
            }
        }
        if (pick == invalid_node) {
            std::uint64_t best = 0;
            for (NodeId v = 0; v < n; ++v) {
                if (!colorable[v] || removed[v])
                    continue;
                std::uint64_t score =
                    config.share_policy == SharePolicy::FewestConflicts
                        ? weight[v]
                        : degree[v];
                if (pick == invalid_node || score < best) {
                    pick = v;
                    best = score;
                }
            }
        }
        removed[pick] = true;
        stack.push_back(pick);
        --remaining;
        for (const auto &[u, w] : adj[pick])
            if (colorable[u] && !removed[u]) {
                --degree[u];
                buckets[bucket_of(u)].push_back(u);
            }
    }

    constexpr std::uint32_t uncolored = ~std::uint32_t(0);
    std::vector<std::uint32_t> color(n, uncolored);
    while (!stack.empty()) {
        NodeId v = stack.back();
        stack.pop_back();
        std::vector<std::uint64_t> clash(colors, 0);
        std::size_t used = 0;
        for (const auto &[u, w] : adj[v])
            if (color[u] != uncolored && colorable[u]) {
                used += clash[color[u]] == 0;
                clash[color[u]] += w;
            }
        std::uint32_t chosen = 0;
        if (used < colors) {
            std::uint64_t preferred =
                (graph.node(v).pc >> config.insn_shift) % colors;
            chosen = static_cast<std::uint32_t>(preferred);
            if (clash[preferred] != 0)
                chosen = static_cast<std::uint32_t>(
                    std::find(clash.begin(), clash.end(), 0u) -
                    clash.begin());
        } else {
            chosen = static_cast<std::uint32_t>(
                std::min_element(clash.begin(), clash.end()) -
                clash.begin());
            result.residual_conflict += clash[chosen];
            ++result.shared_nodes;
        }
        color[v] = chosen;
    }
    for (NodeId v = 0; v < n; ++v) {
        std::uint32_t entry = reserved + color[v];
        if (classes[v] == BranchClass::BiasedTaken)
            entry = 0;
        else if (classes[v] == BranchClass::BiasedNotTaken)
            entry = 1;
        result.assignment.emplace(graph.node(v).pc, entry);
    }
    return result;
}

/** Random graph: weights straddle the threshold, taken rates mixed. */
ConflictGraph
coloringGraph(std::uint64_t seed, std::size_t nodes, double density)
{
    Pcg32 rng(seed);
    ConflictGraph g;
    for (std::size_t i = 0; i < nodes; ++i) {
        std::uint64_t executed = 100 + rng.nextBounded(900);
        std::uint32_t kind = rng.nextBounded(3); // biased T/NT, mixed
        std::uint64_t taken = kind == 0   ? executed
                              : kind == 1 ? 0
                                          : rng.nextBounded(executed);
        // Distinct pcs whose PC-preferred colors scatter.
        g.restoreNode(0x2000 + 8 * (i * 37 % 1021), executed, taken);
    }
    for (NodeId a = 0; a < nodes; ++a)
        for (NodeId b = a + 1; b < nodes; ++b)
            if (rng.nextBool(density))
                g.addInterleave(a, b, 20 + rng.nextBounded(400));
    return g;
}

void
expectSameAllocation(const AllocationResult &got,
                     const AllocationResult &want)
{
    EXPECT_EQ(got.assignment, want.assignment);
    EXPECT_EQ(got.residual_conflict, want.residual_conflict);
    EXPECT_EQ(got.shared_nodes, want.shared_nodes);
    EXPECT_EQ(got.reserved_entries, want.reserved_entries);
}

} // namespace

class ColoringOracle : public ::testing::TestWithParam<
                           std::tuple<std::uint64_t, SharePolicy, bool>>
{
};

TEST_P(ColoringOracle, MatchesScanAtTightSizes)
{
    auto [seed, policy, classify] = GetParam();
    ConflictGraph g = coloringGraph(seed, 150, 0.3);
    AllocationConfig config;
    config.share_policy = policy;
    config.use_classification = classify;
    FilteredGraph filtered = buildFiltered(g, config);
    for (std::uint64_t size : {3ull, 4ull, 7ull, 16ull, 40ull, 200ull}) {
        SCOPED_TRACE("table size " + std::to_string(size));
        AllocationResult want = scanAllocate(g, size, config);
        expectSameAllocation(allocateBranches(g, size, config), want);
        expectSameAllocation(allocateBranches(g, filtered, size, config),
                             want);
    }
}

TEST_P(ColoringOracle, RequiredSizeMatchesScanSearch)
{
    auto [seed, policy, classify] = GetParam();
    ConflictGraph g = coloringGraph(seed + 50, 120, 0.25);
    AllocationConfig config;
    config.share_policy = policy;
    config.use_classification = classify;
    RequiredSizeResult got = requiredTableSize(g, config, 64, 256);

    // The same search over the scan allocator.
    std::uint64_t baseline = moduloConflict(g, 64, config);
    std::uint64_t lo = classify ? 3 : 1;
    auto good = [&](std::uint64_t size) {
        return scanAllocate(g, size, config).residual_conflict <=
               baseline;
    };
    ASSERT_TRUE(good(256));
    std::uint64_t hi = 256, low = lo;
    while (low < hi) {
        std::uint64_t mid = low + (hi - low) / 2;
        if (good(mid))
            hi = mid;
        else
            low = mid + 1;
    }
    while (hi > lo && good(hi - 1))
        --hi;

    ASSERT_TRUE(got.achieved);
    EXPECT_EQ(got.baseline_conflict, baseline);
    EXPECT_EQ(got.required_entries, hi);
    expectSameAllocation(got.allocation, scanAllocate(g, hi, config));
}

INSTANTIATE_TEST_SUITE_P(
    SeedsPoliciesClasses, ColoringOracle,
    ::testing::Combine(::testing::Values(5u, 6u, 7u),
                       ::testing::Values(SharePolicy::FewestConflicts,
                                         SharePolicy::LowestDegree),
                       ::testing::Bool()));

TEST(Pipeline, AllocateAfterImportMatchesFreshPipeline)
{
    // The pipeline caches the allocator's filtered view; importing a
    // second profile changes the graph, so the next allocate() must
    // see the merged graph exactly as a fresh pipeline does.
    ConflictGraph first = coloringGraph(11, 80, 0.3);
    ConflictGraph second = coloringGraph(12, 120, 0.3);
    TraceStatsCollector stats;
    FrequencySelection selection;

    AllocationPipeline reused;
    reused.importProfile(stats, selection, first);
    AllocationResult before = reused.allocate(8);
    reused.importProfile(stats, selection, second);

    AllocationPipeline fresh;
    fresh.importProfile(stats, selection, first);
    fresh.importProfile(stats, selection, second);
    for (std::uint64_t size : {8ull, 32ull}) {
        SCOPED_TRACE("table size " + std::to_string(size));
        expectSameAllocation(reused.allocate(size), fresh.allocate(size));
    }
    EXPECT_NE(before.assignment.size(),
              fresh.allocate(8).assignment.size());
    EXPECT_EQ(reused.requiredSize(64, 256).required_entries,
              fresh.requiredSize(64, 256).required_entries);
}
