#include "core/working_set.hh"

#include <algorithm>
#include <set>
#include <span>

#include "obs/metrics.hh"
#include "obs/phase_tracer.hh"
#include "util/logging.hh"

namespace bwsa
{

namespace
{

/** Heat order: more executions first, then the lower id. */
struct Hotter
{
    const ConflictGraph &graph;

    bool
    operator()(NodeId a, NodeId b) const
    {
        std::uint64_t ea = graph.node(a).executed;
        std::uint64_t eb = graph.node(b).executed;
        return ea != eb ? ea > eb : a < b;
    }
};

/** Bron-Kerbosch with pivoting over sorted id vectors. */
class CliqueEnumerator
{
  public:
    CliqueEnumerator(const NeighbourLists &adj,
                     const WorkingSetLimits &limits,
                     WorkingSetResult &result)
        : _adj(adj), _limits(limits), _result(result)
    {}

    void
    run()
    {
        std::vector<NodeId> all(_adj.nodeCount());
        for (NodeId i = 0; i < all.size(); ++i)
            all[i] = i;
        std::vector<NodeId> r;
        expand(r, std::move(all), {});
    }

  private:
    bool
    capped() const
    {
        return (_limits.max_sets != 0 &&
                _result.sets.size() >= _limits.max_sets) ||
               (_limits.max_expansions != 0 &&
                _result.expansions >= _limits.max_expansions);
    }

    std::vector<NodeId>
    intersect(const std::vector<NodeId> &sorted_set, NodeId v) const
    {
        std::vector<NodeId> out;
        std::span<const NodeId> nbrs = _adj.of(v);
        std::set_intersection(sorted_set.begin(), sorted_set.end(),
                              nbrs.begin(), nbrs.end(),
                              std::back_inserter(out));
        return out;
    }

    void
    expand(std::vector<NodeId> &r, std::vector<NodeId> p,
           std::vector<NodeId> x)
    {
        ++_result.expansions;
        if (capped()) {
            _result.truncated = true;
            return;
        }
        if (p.empty() && x.empty()) {
            WorkingSet set = r;
            std::sort(set.begin(), set.end());
            _result.sets.push_back(std::move(set));
            return;
        }

        // Pivot: the highest-degree candidate from P union X.  The
        // classic pivot maximizes |P intersect N(u)| exactly, but that
        // costs an intersection per candidate; global degree is a
        // near-equivalent O(|P|+|X|) proxy on the locally dense
        // graphs working sets produce.
        NodeId pivot = invalid_node;
        std::size_t best_degree = 0;
        for (const std::vector<NodeId> *set : {&p, &x}) {
            for (NodeId u : *set) {
                std::size_t degree = _adj.of(u).size();
                if (pivot == invalid_node || degree > best_degree) {
                    pivot = u;
                    best_degree = degree;
                }
            }
        }

        std::vector<NodeId> candidates;
        if (pivot == invalid_node) {
            candidates = p;
        } else {
            std::span<const NodeId> nbrs = _adj.of(pivot);
            std::set_difference(p.begin(), p.end(), nbrs.begin(),
                                nbrs.end(), std::back_inserter(candidates));
        }

        for (NodeId v : candidates) {
            if (capped()) {
                _result.truncated = true;
                return;
            }
            r.push_back(v);
            expand(r, intersect(p, v), intersect(x, v));
            r.pop_back();
            // Move v from P to X.
            p.erase(std::lower_bound(p.begin(), p.end(), v));
            auto pos = std::lower_bound(x.begin(), x.end(), v);
            x.insert(pos, v);
        }
    }

    const NeighbourLists &_adj;
    const WorkingSetLimits &_limits;
    WorkingSetResult &_result;
};

WorkingSetResult
seededCliques(const ConflictGraph &graph, const NeighbourLists &adj)
{
    WorkingSetResult result;
    Hotter hotter{graph};
    std::set<WorkingSet> seen;
    std::vector<NodeId> candidates;
    std::vector<NodeId> next;
    for (NodeId seed = 0; seed < adj.nodeCount(); ++seed) {
        WorkingSet set{seed};
        std::span<const NodeId> seed_nbrs = adj.of(seed);
        candidates.assign(seed_nbrs.begin(), seed_nbrs.end());

        // Grow: repeatedly take the hottest remaining candidate and
        // intersect the candidate set with its neighbourhood; every
        // accepted member is adjacent to all previous members, so the
        // final set is a maximal clique containing the seed.
        while (!candidates.empty()) {
            // A plain scan: std::min_element benchmarked slower here.
            NodeId best = candidates[0];
            for (NodeId c : candidates)
                if (hotter(c, best))
                    best = c;
            set.push_back(best);
            std::span<const NodeId> nbrs = adj.of(best);
            next.clear();
            std::set_intersection(candidates.begin(), candidates.end(),
                                  nbrs.begin(), nbrs.end(),
                                  std::back_inserter(next));
            candidates.swap(next);
        }
        std::sort(set.begin(), set.end());
        if (seen.insert(set).second)
            result.sets.push_back(std::move(set));
    }
    return result;
}

WorkingSetResult
greedyPartition(const ConflictGraph &graph, const NeighbourLists &adj)
{
    WorkingSetResult result;
    std::size_t n = adj.nodeCount();
    Hotter hotter{graph};

    // Hottest branches seed sets first so the dominant loop nests form
    // coherent sets instead of being absorbed piecemeal.
    std::vector<NodeId> order(n);
    for (NodeId i = 0; i < n; ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), hotter);

    std::vector<bool> assigned(n, false);
    for (NodeId seed : order) {
        if (assigned[seed])
            continue;
        WorkingSet set{seed};
        assigned[seed] = true;

        // Candidates: unassigned neighbours, hottest first; each must
        // be adjacent to every current member (complete subgraph).
        std::vector<NodeId> candidates;
        for (NodeId v : adj.of(seed))
            if (!assigned[v])
                candidates.push_back(v);
        std::sort(candidates.begin(), candidates.end(), hotter);

        for (NodeId cand : candidates) {
            std::span<const NodeId> nbrs = adj.of(cand);
            bool complete = true;
            for (NodeId member : set) {
                if (member != seed &&
                    !std::binary_search(nbrs.begin(), nbrs.end(),
                                        member)) {
                    complete = false;
                    break;
                }
            }
            if (complete) {
                set.push_back(cand);
                assigned[cand] = true;
            }
        }
        std::sort(set.begin(), set.end());
        result.sets.push_back(std::move(set));
    }
    return result;
}

WorkingSetResult
connectedComponents(const NeighbourLists &adj)
{
    WorkingSetResult result;
    std::size_t n = adj.nodeCount();
    std::vector<bool> visited(n, false);
    std::vector<NodeId> stack;

    for (NodeId start = 0; start < n; ++start) {
        if (visited[start])
            continue;
        WorkingSet component;
        stack.push_back(start);
        visited[start] = true;
        while (!stack.empty()) {
            NodeId v = stack.back();
            stack.pop_back();
            component.push_back(v);
            for (NodeId w : adj.of(v)) {
                if (!visited[w]) {
                    visited[w] = true;
                    stack.push_back(w);
                }
            }
        }
        std::sort(component.begin(), component.end());
        result.sets.push_back(std::move(component));
    }
    return result;
}

} // namespace

std::string
workingSetDefinitionName(WorkingSetDefinition def)
{
    switch (def) {
      case WorkingSetDefinition::MaximalClique:
        return "maximal-clique";
      case WorkingSetDefinition::SeededClique:
        return "seeded-clique";
      case WorkingSetDefinition::GreedyPartition:
        return "greedy-partition";
      case WorkingSetDefinition::ConnectedComponent:
        return "connected-component";
    }
    bwsa_panic("unknown WorkingSetDefinition ", static_cast<int>(def));
}

WorkingSetResult
findWorkingSets(const ConflictGraph &graph, WorkingSetDefinition def,
                const WorkingSetLimits &limits)
{
    obs::PhaseTracer::Span span("ws.extract");
    span.addWork(graph.nodeCount());

    const NeighbourLists adj = graph.neighbours();
    WorkingSetResult result;
    switch (def) {
      case WorkingSetDefinition::MaximalClique: {
        CliqueEnumerator enumerator(adj, limits, result);
        enumerator.run();
        break;
      }
      case WorkingSetDefinition::SeededClique:
        result = seededCliques(graph, adj);
        break;
      case WorkingSetDefinition::GreedyPartition:
        result = greedyPartition(graph, adj);
        break;
      case WorkingSetDefinition::ConnectedComponent:
        result = connectedComponents(adj);
        break;
      default:
        bwsa_panic("unknown WorkingSetDefinition ",
                   static_cast<int>(def));
    }

    auto &registry = obs::MetricsRegistry::global();
    registry.counter("ws.extractions").inc();
    registry.counter("ws.sets_found").inc(result.sets.size());
    return result;
}

WorkingSetStats
computeWorkingSetStats(const ConflictGraph &graph,
                       const WorkingSetResult &result)
{
    WorkingSetStats stats;
    stats.total_sets = result.sets.size();

    double static_sum = 0.0;
    double weighted_sum = 0.0;
    double weight_total = 0.0;
    for (const WorkingSet &set : result.sets) {
        double size = static_cast<double>(set.size());
        static_sum += size;
        std::uint64_t weight = 0;
        for (NodeId id : set)
            weight += graph.node(id).executed;
        weighted_sum += size * static_cast<double>(weight);
        weight_total += static_cast<double>(weight);
        stats.max_size = std::max(stats.max_size, set.size());
    }
    if (stats.total_sets != 0)
        stats.avg_static_size =
            static_sum / static_cast<double>(stats.total_sets);
    if (weight_total > 0.0)
        stats.avg_dynamic_size = weighted_sum / weight_total;
    return stats;
}

} // namespace bwsa
