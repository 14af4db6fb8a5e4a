#include "core/allocation.hh"

#include <algorithm>
#include <functional>
#include <queue>
#include <vector>

#include "obs/metrics.hh"
#include "obs/phase_tracer.hh"
#include "util/logging.hh"

namespace bwsa
{

FilteredGraph
buildFiltered(const ConflictGraph &graph,
              const AllocationConfig &config)
{
    std::size_t n = graph.nodeCount();
    FilteredGraph fg;
    if (config.use_classification) {
        BranchClassifier classifier(config.bias_cutoff);
        fg.classes = classifier.classifyGraph(graph);
    } else {
        fg.classes.assign(n, BranchClass::Mixed);
    }

    // Prune edges below the threshold and, with classification on,
    // drop edges between branches of the same biased class (their
    // shared history is identical, so the conflict is harmless).  The
    // kept edges are a subsequence of the key-sorted edge array.
    std::vector<ConflictGraph::Edge> kept;
    for (const ConflictGraph::Edge &edge : graph.edges()) {
        if (edge.second < config.edge_threshold)
            continue;
        auto [a, b] = ConflictGraph::unpackEdge(edge.first);
        BranchClass ca = fg.classes[a];
        if (ca == fg.classes[b] && ca != BranchClass::Mixed)
            continue; // same biased class: harmless conflict
        kept.push_back(edge);
    }
    fg.adj = neighbourLists(kept, n);

    fg.degree.assign(n, 0);
    fg.incident.assign(n, 0);
    const NeighbourLists &adj = fg.adj;
    for (NodeId v = 0; v < n; ++v) {
        if (fg.classes[v] != BranchClass::Mixed)
            continue;
        for (std::size_t k = adj.offsets[v]; k < adj.offsets[v + 1]; ++k) {
            if (fg.classes[adj.targets[k]] == BranchClass::Mixed) {
                ++fg.degree[v];
                fg.incident[v] += adj.weights[k];
            }
        }
    }
    return fg;
}

AllocationResult
allocateBranches(const ConflictGraph &graph, std::uint64_t table_size,
                 const AllocationConfig &config)
{
    return allocateBranches(graph, buildFiltered(graph, config),
                            table_size, config);
}

AllocationResult
allocateBranches(const ConflictGraph &graph, const FilteredGraph &fg,
                 std::uint64_t table_size,
                 const AllocationConfig &config)
{
    obs::PhaseTracer::Span span("alloc.color");
    span.addWork(graph.nodeCount());

    std::size_t n = graph.nodeCount();
    if (fg.nodeCount() != n)
        bwsa_panic("allocateBranches: filtered view has ",
                   fg.nodeCount(), " nodes, graph ", n);

    AllocationResult result;
    result.table_size = table_size;

    std::uint32_t reserved = config.use_classification ? 2u : 0u;
    if (table_size <= reserved)
        bwsa_fatal("branch allocation needs a table larger than its ",
                   reserved, " reserved entries, got ", table_size);
    result.reserved_entries = reserved;
    std::uint64_t colors = table_size - reserved;

    // Nodes the coloring phase must place: mixed-class only (biased
    // branches are pinned to the reserved entries below).
    std::vector<bool> colorable(n, false);
    for (NodeId v = 0; v < n; ++v)
        colorable[v] = (fg.classes[v] == BranchClass::Mixed);

    // --- Simplify: peel nodes of degree < colors (min degree first);
    // when none qualifies, optimistically push the node with the
    // least incident interleave weight as a share candidate.
    const NeighbourLists &adj = fg.adj;
    std::vector<std::size_t> degree = fg.degree;
    const std::vector<std::uint64_t> &weight = fg.incident;

    std::vector<NodeId> stack;
    stack.reserve(n);
    std::vector<bool> removed(n, false);

    // Bucketed min-degree extraction; amortized near-linear.
    std::size_t remaining = 0;
    for (NodeId v = 0; v < n; ++v)
        if (colorable[v])
            ++remaining;

    std::vector<std::vector<NodeId>> buckets;
    auto bucket_of = [&](NodeId v) {
        std::size_t d = degree[v];
        if (d >= buckets.size())
            buckets.resize(d + 1);
        return d;
    };
    for (NodeId v = 0; v < n; ++v)
        if (colorable[v])
            buckets[bucket_of(v)].push_back(v);

    // Share candidates, built on first need: the lowest (score, id)
    // live node, exactly what a scan over all nodes would pick.
    // FewestConflicts scores by incident weight, which simplify never
    // changes, so a cursor walks a presorted order.  LowestDegree
    // scores by the live degree, so a lazy min-heap holds one entry
    // per degree change and drops stale ones at the top.
    bool share_ready = false;
    std::vector<NodeId> by_weight;
    std::size_t cursor = 0;
    using DegreeEntry = std::pair<std::size_t, NodeId>;
    std::priority_queue<DegreeEntry, std::vector<DegreeEntry>,
                        std::greater<>>
        by_degree;
    const bool fewest = config.share_policy ==
                        SharePolicy::FewestConflicts;

    auto remove_node = [&](NodeId v) {
        removed[v] = true;
        stack.push_back(v);
        --remaining;
        for (NodeId u : adj.of(v)) {
            if (colorable[u] && !removed[u]) {
                --degree[u];
                buckets[bucket_of(u)].push_back(u);
                if (share_ready && !fewest)
                    by_degree.emplace(degree[u], u);
            }
        }
    };

    auto share_candidate = [&]() {
        if (!share_ready) {
            share_ready = true;
            for (NodeId v = 0; v < n; ++v) {
                if (!colorable[v] || removed[v])
                    continue;
                if (fewest)
                    by_weight.push_back(v);
                else
                    by_degree.emplace(degree[v], v);
            }
            if (fewest)
                std::stable_sort(by_weight.begin(), by_weight.end(),
                                 [&](NodeId a, NodeId b) {
                                     return weight[a] < weight[b];
                                 });
        }
        if (fewest) {
            while (removed[by_weight[cursor]])
                ++cursor;
            return by_weight[cursor];
        }
        while (true) {
            auto [d, v] = by_degree.top();
            by_degree.pop();
            if (!removed[v] && degree[v] == d)
                return v;
        }
    };

    while (remaining > 0) {
        // Find the lowest-degree live node (lazily deleted buckets).
        NodeId pick = invalid_node;
        for (std::size_t d = 0; d < buckets.size() && d < colors;
             ++d) {
            while (!buckets[d].empty()) {
                NodeId v = buckets[d].back();
                buckets[d].pop_back();
                if (!removed[v] && degree[v] == d) {
                    pick = v;
                    break;
                }
            }
            if (pick != invalid_node)
                break;
        }

        // No trivially colorable node: optimistically push a share
        // candidate -- by fewest conflicts (the paper's rule) or by
        // lowest degree (the configurable ablation).
        if (pick == invalid_node)
            pick = share_candidate();
        remove_node(pick);
    }

    // --- Select: pop in reverse removal order, preferring a color no
    // conflicting neighbour holds; otherwise the color minimizing the
    // interleave weight shared with same-colored neighbours.
    constexpr std::uint32_t uncolored = ~std::uint32_t(0);
    std::vector<std::uint32_t> color(n, uncolored);
    std::vector<std::uint64_t> clash(colors, 0);
    std::vector<std::uint32_t> touched;

    while (!stack.empty()) {
        NodeId v = stack.back();
        stack.pop_back();

        touched.clear();
        for (std::size_t k = adj.offsets[v]; k < adj.offsets[v + 1]; ++k) {
            NodeId u = adj.targets[k];
            if (color[u] != uncolored && colorable[u]) {
                if (clash[color[u]] == 0)
                    touched.push_back(color[u]);
                clash[color[u]] += adj.weights[k];
            }
        }

        std::uint32_t chosen = uncolored;
        if (touched.size() < colors) {
            // A conflict-free color exists; spread load by picking
            // v's PC-preferred slot when free, else the first free.
            std::uint64_t preferred =
                (graph.node(v).pc >> config.insn_shift) % colors;
            if (clash[preferred] == 0) {
                chosen = static_cast<std::uint32_t>(preferred);
            } else {
                for (std::uint32_t c = 0;
                     c < static_cast<std::uint32_t>(colors); ++c) {
                    if (clash[c] == 0) {
                        chosen = c;
                        break;
                    }
                }
            }
        } else {
            // Must share: minimize added contention.
            std::uint64_t best = ~std::uint64_t(0);
            for (std::uint32_t c = 0;
                 c < static_cast<std::uint32_t>(colors); ++c) {
                if (clash[c] < best) {
                    best = clash[c];
                    chosen = c;
                }
            }
            result.residual_conflict += best;
            ++result.shared_nodes;
        }
        color[v] = chosen;

        for (std::uint32_t c : touched)
            clash[c] = 0;
    }

    // --- Emit the assignment: mixed nodes at reserved + color,
    // biased nodes pinned to the two reserved entries.
    for (NodeId v = 0; v < n; ++v) {
        std::uint32_t entry;
        switch (fg.classes[v]) {
          case BranchClass::BiasedTaken:
            entry = 0;
            break;
          case BranchClass::BiasedNotTaken:
            entry = 1;
            break;
          case BranchClass::Mixed:
          default:
            entry = reserved + color[v];
            break;
        }
        result.assignment.emplace(graph.node(v).pc, entry);
    }

    auto &registry = obs::MetricsRegistry::global();
    registry.counter("alloc.colorings").inc();
    registry.counter("alloc.shared_nodes").inc(result.shared_nodes);
    return result;
}

std::uint64_t
moduloConflict(const ConflictGraph &graph, std::uint64_t table_size,
               const AllocationConfig &config)
{
    if (table_size == 0)
        bwsa_panic("moduloConflict requires a nonzero table");
    std::uint64_t conflict = 0;
    for (const auto &[key, count] : graph.edges()) {
        if (count < config.edge_threshold)
            continue;
        auto [a, b] = ConflictGraph::unpackEdge(key);
        std::uint64_t ia =
            (graph.node(a).pc >> config.insn_shift) % table_size;
        std::uint64_t ib =
            (graph.node(b).pc >> config.insn_shift) % table_size;
        if (ia == ib)
            conflict += count;
    }
    return conflict;
}

RequiredSizeResult
requiredTableSize(const ConflictGraph &graph,
                  const AllocationConfig &config,
                  std::uint64_t baseline_entries,
                  std::uint64_t max_entries)
{
    return requiredTableSize(graph, buildFiltered(graph, config), config,
                             baseline_entries, max_entries);
}

RequiredSizeResult
requiredTableSize(const ConflictGraph &graph, const FilteredGraph &fg,
                  const AllocationConfig &config,
                  std::uint64_t baseline_entries,
                  std::uint64_t max_entries)
{
    BWSA_SPAN("alloc.required_size");
    obs::MetricsRegistry::global()
        .counter("alloc.size_searches")
        .inc();

    RequiredSizeResult result;
    result.baseline_conflict =
        moduloConflict(graph, baseline_entries, config);

    std::uint64_t lo = config.use_classification ? 3 : 1;
    if (max_entries < lo)
        bwsa_fatal("requiredTableSize: search bound ", max_entries,
                   " below minimum ", lo);

    auto good = [&](std::uint64_t size) {
        return allocateBranches(graph, fg, size, config)
                   .residual_conflict <= result.baseline_conflict;
    };

    if (!good(max_entries))
        return result; // not achieved within the bound

    // Greedy coloring is not perfectly monotone in the table size, so
    // binary-search to a candidate, then walk down while still good.
    std::uint64_t hi = max_entries;
    std::uint64_t low = lo;
    while (low < hi) {
        std::uint64_t mid = low + (hi - low) / 2;
        if (good(mid))
            hi = mid;
        else
            low = mid + 1;
    }
    while (hi > lo && good(hi - 1))
        --hi;

    result.required_entries = hi;
    result.achieved = true;
    result.allocation = allocateBranches(graph, fg, hi, config);
    return result;
}

} // namespace bwsa
