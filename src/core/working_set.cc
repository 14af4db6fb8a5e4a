#include "core/working_set.hh"

#include <algorithm>
#include <bit>
#include <set>

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

bool
testBit(const std::uint64_t *bits, NodeId r)
{
    return (bits[r / 64] >> (r % 64)) & 1;
}

void
setBit(std::uint64_t *bits, NodeId r)
{
    bits[r / 64] |= std::uint64_t(1) << (r % 64);
}

void
clearBit(std::uint64_t *bits, NodeId r)
{
    bits[r / 64] &= ~(std::uint64_t(1) << (r % 64));
}

/**
 * The graph as bit rows in heat-rank order.  Every node with at least
 * one edge gets a rank, the hottest rank 0, and one row of `words`
 * 64-bit words with a bit set for each neighbour's rank.  A node
 * without edges is a singleton set under every definition and has no
 * row.  Memory: m * ceil(m / 64) words for m ranked nodes.
 */
struct RankedRows
{
    explicit RankedRows(const ConflictGraph &graph)
        : order(graph.nodeCount()), rank_of(graph.nodeCount(), invalid_node)
    {
        for (const ConflictGraph::Edge &edge : graph.edges()) {
            auto [a, b] = ConflictGraph::unpackEdge(edge.first);
            rank_of[a] = rank_of[b] = 0;
        }
        for (NodeId v = 0; v < order.size(); ++v)
            order[v] = v;
        std::sort(order.begin(), order.end(), Hotter{graph});
        for (NodeId v : order) {
            if (rank_of[v] == invalid_node)
                continue;
            rank_of[v] = static_cast<NodeId>(id_of.size());
            id_of.push_back(v);
        }

        words = (id_of.size() + 63) / 64;
        bits.assign(id_of.size() * words, 0);
        degree.assign(id_of.size(), 0);
        for (const ConflictGraph::Edge &edge : graph.edges()) {
            auto [a, b] = ConflictGraph::unpackEdge(edge.first);
            NodeId ra = rank_of[a];
            NodeId rb = rank_of[b];
            setBit(bits.data() + ra * words, rb);
            setBit(bits.data() + rb * words, ra);
            ++degree[ra];
            ++degree[rb];
        }
    }

    /** Neighbour bits of rank @p r. */
    const std::uint64_t *
    row(NodeId r) const
    {
        return bits.data() + r * words;
    }

    /**
     * Grow a clique from a seed: @p cand holds the seed's row masked
     * to the eligible ranks.  Repeatedly take the hottest candidate
     * (the lowest set bit, found from a word cursor that only moves
     * forward) and keep only its neighbours, so every member taken is
     * adjacent to all earlier ones.  @p take(rank) sees each member.
     */
    template <typename Take>
    void
    growClique(std::uint64_t *cand, Take &&take) const
    {
        std::size_t w = 0;
        for (;;) {
            while (w < words && cand[w] == 0)
                ++w;
            if (w == words)
                return;
            NodeId best =
                static_cast<NodeId>(w * 64 + std::countr_zero(cand[w]));
            take(best);
            const std::uint64_t *nbrs = row(best);
            for (std::size_t k = w; k < words; ++k)
                cand[k] &= nbrs[k];
        }
    }

    /** Every node id, hottest first. */
    std::vector<NodeId> order;

    /** Rank of each node id; invalid_node for a node without edges. */
    std::vector<NodeId> rank_of;

    /** Node id of each rank. */
    std::vector<NodeId> id_of;

    /** Edge count of each rank. */
    std::vector<std::uint32_t> degree;

    std::size_t words = 0;
    std::vector<std::uint64_t> bits;
};

/**
 * Bron-Kerbosch with pivoting, P and X as rank bitsets (the
 * bit-parallel style of San Segundo et al., 2011).
 */
class CliqueEnumerator
{
  public:
    CliqueEnumerator(const RankedRows &rows,
                     const WorkingSetLimits &limits,
                     WorkingSetResult &result)
        : _rows(rows), _limits(limits), _result(result)
    {}

    void
    run()
    {
        // A node without edges is a maximal clique of its own: one
        // expansion each, as a search from the root would spend.
        for (NodeId v = 0; v < _rows.rank_of.size(); ++v) {
            if (_rows.rank_of[v] != invalid_node)
                continue;
            ++_result.expansions;
            if (capped()) {
                _result.truncated = true;
                return;
            }
            _result.sets.push_back({v});
        }
        if (_rows.id_of.empty())
            return;

        // P holds every rank, X none.
        std::vector<std::uint64_t> px(2 * _rows.words, 0);
        for (NodeId r = 0; r < _rows.id_of.size(); ++r)
            setBit(px.data(), r);
        expand(px.data(), px.data() + _rows.words);
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

    /** Expand R = _r with candidate set @p p and excluded set @p x. */
    void
    expand(std::uint64_t *p, std::uint64_t *x)
    {
        ++_result.expansions;
        if (capped()) {
            _result.truncated = true;
            return;
        }
        const std::size_t words = _rows.words;

        // Pivot: the highest-degree node of P union X.  The classic
        // pivot maximizes |P intersect N(u)| exactly, but that costs
        // an intersection per candidate; global degree is a
        // near-equivalent proxy on the locally dense graphs working
        // sets produce.
        NodeId pivot = invalid_node;
        for (std::size_t w = 0; w < words; ++w) {
            for (std::uint64_t word = p[w] | x[w]; word != 0;
                 word &= word - 1) {
                NodeId u =
                    static_cast<NodeId>(w * 64 + std::countr_zero(word));
                if (pivot == invalid_node ||
                    _rows.degree[u] > _rows.degree[pivot])
                    pivot = u;
            }
        }
        if (pivot == invalid_node) {
            WorkingSet set;
            for (NodeId r : _r)
                set.push_back(_rows.id_of[r]);
            std::sort(set.begin(), set.end());
            _result.sets.push_back(std::move(set));
            return;
        }

        // The candidates, then the child's P and X.
        std::vector<std::uint64_t> buffer(3 * words);
        std::uint64_t *cand = buffer.data();
        std::uint64_t *child_p = cand + words;
        std::uint64_t *child_x = child_p + words;
        const std::uint64_t *pivot_row = _rows.row(pivot);
        for (std::size_t w = 0; w < words; ++w)
            cand[w] = p[w] & ~pivot_row[w];
        for (std::size_t w = 0; w < words; ++w) {
            for (std::uint64_t word = cand[w]; word != 0;
                 word &= word - 1) {
                if (capped()) {
                    _result.truncated = true;
                    return;
                }
                NodeId v =
                    static_cast<NodeId>(w * 64 + std::countr_zero(word));
                const std::uint64_t *nbrs = _rows.row(v);
                for (std::size_t k = 0; k < words; ++k) {
                    child_p[k] = p[k] & nbrs[k];
                    child_x[k] = x[k] & nbrs[k];
                }
                _r.push_back(v);
                expand(child_p, child_x);
                _r.pop_back();
                // Move v from P to X.
                clearBit(p, v);
                setBit(x, v);
            }
        }
    }

    const RankedRows &_rows;
    const WorkingSetLimits &_limits;
    WorkingSetResult &_result;

    /** Ranks of the current clique R. */
    std::vector<NodeId> _r;
};

WorkingSetResult
seededCliques(const RankedRows &rows)
{
    WorkingSetResult result;
    std::set<WorkingSet> seen;
    std::vector<std::uint64_t> cand(rows.words);
    for (NodeId seed = 0; seed < rows.rank_of.size(); ++seed) {
        WorkingSet set{seed};
        NodeId rank = rows.rank_of[seed];
        if (rank != invalid_node) {
            const std::uint64_t *nbrs = rows.row(rank);
            std::copy(nbrs, nbrs + rows.words, cand.begin());
            rows.growClique(cand.data(), [&](NodeId r) {
                set.push_back(rows.id_of[r]);
            });
            std::sort(set.begin(), set.end());
        }
        if (seen.insert(set).second)
            result.sets.push_back(std::move(set));
    }
    return result;
}

WorkingSetResult
greedyPartition(const RankedRows &rows)
{
    WorkingSetResult result;
    std::vector<std::uint64_t> assigned(rows.words, 0);
    std::vector<std::uint64_t> cand(rows.words);

    // Hottest branches seed sets first so the dominant loop nests form
    // coherent sets instead of being absorbed piecemeal.  Candidates
    // are the unassigned neighbours in heat order, and one must be
    // adjacent to every member so far: exactly the clique growth over
    // the seed's row masked by the unassigned ranks.
    for (NodeId seed : rows.order) {
        WorkingSet set{seed};
        NodeId rank = rows.rank_of[seed];
        if (rank != invalid_node) {
            if (testBit(assigned.data(), rank))
                continue;
            setBit(assigned.data(), rank);
            const std::uint64_t *nbrs = rows.row(rank);
            for (std::size_t w = 0; w < rows.words; ++w)
                cand[w] = nbrs[w] & ~assigned[w];
            rows.growClique(cand.data(), [&](NodeId r) {
                set.push_back(rows.id_of[r]);
                setBit(assigned.data(), r);
            });
            std::sort(set.begin(), set.end());
        }
        result.sets.push_back(std::move(set));
    }
    return result;
}

WorkingSetResult
connectedComponents(const RankedRows &rows)
{
    WorkingSetResult result;
    std::vector<std::uint64_t> visited(rows.words, 0);
    std::vector<NodeId> stack;

    // Components in order of their smallest id, each sorted.
    for (NodeId start = 0; start < rows.rank_of.size(); ++start) {
        WorkingSet component{start};
        NodeId rank = rows.rank_of[start];
        if (rank != invalid_node) {
            if (testBit(visited.data(), rank))
                continue;
            setBit(visited.data(), rank);
            stack.push_back(rank);
            while (!stack.empty()) {
                const std::uint64_t *nbrs = rows.row(stack.back());
                stack.pop_back();
                for (std::size_t w = 0; w < rows.words; ++w) {
                    std::uint64_t fresh = nbrs[w] & ~visited[w];
                    visited[w] |= fresh;
                    for (; fresh != 0; fresh &= fresh - 1) {
                        NodeId r = static_cast<NodeId>(
                            w * 64 + std::countr_zero(fresh));
                        stack.push_back(r);
                        component.push_back(rows.id_of[r]);
                    }
                }
            }
            std::sort(component.begin(), component.end());
        }
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

    const RankedRows rows(graph);
    WorkingSetResult result;
    switch (def) {
      case WorkingSetDefinition::MaximalClique: {
        CliqueEnumerator enumerator(rows, limits, result);
        enumerator.run();
        break;
      }
      case WorkingSetDefinition::SeededClique:
        result = seededCliques(rows);
        break;
      case WorkingSetDefinition::GreedyPartition:
        result = greedyPartition(rows);
        break;
      case WorkingSetDefinition::ConnectedComponent:
        result = connectedComponents(rows);
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
