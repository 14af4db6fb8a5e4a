#include "profile/conflict_graph.hh"

#include <algorithm>
#include <iterator>

#include "obs/metrics.hh"
#include "obs/phase_tracer.hh"
#include "util/logging.hh"

namespace bwsa
{

NodeId
ConflictGraph::addOrGetNode(BranchPc pc)
{
    auto it = _pc_to_node.find(pc);
    if (it != _pc_to_node.end())
        return it->second;
    NodeId id = static_cast<NodeId>(_nodes.size());
    ConflictNode node;
    node.pc = pc;
    _nodes.push_back(node);
    _pc_to_node.emplace(pc, id);
    return id;
}

NodeId
ConflictGraph::findNode(BranchPc pc) const
{
    auto it = _pc_to_node.find(pc);
    return it == _pc_to_node.end() ? invalid_node : it->second;
}

namespace
{

bool
keyBelow(const ConflictGraph::Edge &edge, std::uint64_t key)
{
    return edge.first < key;
}

} // namespace

void
ConflictGraph::addInterleave(NodeId a, NodeId b, std::uint64_t count)
{
    if (a == b)
        bwsa_panic("addInterleave: self edge on node ", a);
    if (a >= _nodes.size() || b >= _nodes.size())
        bwsa_panic("addInterleave: node out of range");
    if (count == 0)
        return;
    std::uint64_t key = packEdge(a, b);
    auto it = std::lower_bound(_edges.begin(), _edges.end(), key,
                               keyBelow);
    if (it != _edges.end() && it->first == key)
        it->second += count;
    else
        _edges.insert(it, Edge{key, count});
}

NodeId
ConflictGraph::restoreNode(BranchPc pc, std::uint64_t executed,
                           std::uint64_t taken)
{
    NodeId id = addOrGetNode(pc);
    _nodes[id].executed += executed;
    _nodes[id].taken += taken;
    _total_executions += executed;
    return id;
}

std::uint64_t
ConflictGraph::interleaveCount(NodeId a, NodeId b) const
{
    std::uint64_t key = packEdge(a, b);
    auto it = std::lower_bound(_edges.begin(), _edges.end(), key,
                               keyBelow);
    return it != _edges.end() && it->first == key ? it->second : 0;
}

const ConflictNode &
ConflictGraph::node(NodeId id) const
{
    if (id >= _nodes.size())
        bwsa_panic("node ", id, " out of range");
    return _nodes[id];
}

ConflictGraph
ConflictGraph::pruned(std::uint64_t threshold) const
{
    BWSA_SPAN("graph.prune");
    auto keep = [threshold](const Edge &edge) {
        return edge.second >= threshold;
    };
    ConflictGraph out;
    out._nodes = _nodes;
    out._pc_to_node = _pc_to_node;
    out._total_executions = _total_executions;
    out._edges.reserve(static_cast<std::size_t>(
        std::count_if(_edges.begin(), _edges.end(), keep)));
    std::copy_if(_edges.begin(), _edges.end(),
                 std::back_inserter(out._edges), keep);

    auto &registry = obs::MetricsRegistry::global();
    registry.counter("graph.prunes").inc();
    registry.counter("graph.edges_kept").inc(out._edges.size());
    registry.counter("graph.edges_pruned")
        .inc(_edges.size() - out._edges.size());
    return out;
}

void
ConflictGraph::mergeFrom(const ConflictGraph &other)
{
    BWSA_SPAN("graph.merge");
    obs::MetricsRegistry::global().counter("graph.merges").inc();
    // Node ids differ between graphs; translate through PCs.
    std::vector<NodeId> remap(other._nodes.size());
    for (NodeId id = 0; id < remap.size(); ++id) {
        // Copy: with other == *this the push below may reallocate.
        const ConflictNode n = other._nodes[id];
        NodeId mine = addOrGetNode(n.pc);
        _nodes[mine].executed += n.executed;
        _nodes[mine].taken += n.taken;
        remap[id] = mine;
    }
    _total_executions += other._total_executions;
    std::vector<std::vector<Edge>> runs;
    runs.push_back(remapEdges(other._edges, remap, _nodes.size()));
    mergeEdges(std::move(runs));
}

std::vector<ConflictGraph::Edge>
ConflictGraph::remapEdges(const std::vector<Edge> &edges,
                          const std::vector<NodeId> &remap,
                          std::size_t node_count)
{
    std::vector<Edge> out(edges.size());
    for (std::size_t i = 0; i < edges.size(); ++i) {
        auto [a, b] = unpackEdge(edges[i].first);
        out[i] = {packEdge(remap[a], remap[b]), edges[i].second};
    }
    bool increasing = true;
    for (std::size_t i = 1; i < remap.size() && increasing; ++i)
        increasing = remap[i] > remap[i - 1];
    if (increasing)
        return out; // (a, b) -> (remap a, remap b) keeps key order

    // LSD counting sort: by max id, then stably by min id.
    std::vector<Edge> tmp(out.size());
    std::vector<std::size_t> start(node_count + 1);
    auto scatter = [&](const std::vector<Edge> &from,
                       std::vector<Edge> &to, auto digit) {
        std::fill(start.begin(), start.end(), 0);
        for (const Edge &edge : from)
            ++start[digit(edge.first) + 1];
        for (std::size_t v = 0; v < node_count; ++v)
            start[v + 1] += start[v];
        for (const Edge &edge : from)
            to[start[digit(edge.first)]++] = edge;
    };
    scatter(out, tmp, [](std::uint64_t key) {
        return static_cast<std::size_t>(key & 0xffffffffu);
    });
    scatter(tmp, out, [](std::uint64_t key) {
        return static_cast<std::size_t>(key >> 32);
    });
    return out;
}

void
ConflictGraph::mergeEdges(std::vector<std::vector<Edge>> runs)
{
    std::size_t incoming = 0;
    for (const std::vector<Edge> &run : runs) {
        for (std::size_t i = 0; i < run.size(); ++i) {
            auto [a, b] = unpackEdge(run[i].first);
            if (a >= b || b >= _nodes.size() || run[i].second == 0 ||
                (i > 0 && run[i - 1].first >= run[i].first))
                bwsa_panic("mergeEdges: run is not strictly sorted "
                           "over distinct nodes with nonzero counts");
        }
        incoming += run.size();
    }
    if (incoming == 0)
        return;
    if (_edges.empty() && runs.size() == 1) {
        _edges = std::move(runs.front());
        return;
    }
    runs.push_back(std::move(_edges));
    _edges = mergeRuns({runs.begin(), runs.end()});
}

std::vector<ConflictGraph::Edge>
ConflictGraph::mergeRuns(const std::vector<std::span<const Edge>> &runs)
{
    // An exhausted run reads as a key above every real one (a < b
    // keeps real keys below all-ones).
    constexpr std::uint64_t exhausted = ~std::uint64_t(0);
    struct Cursor
    {
        const Edge *at;
        const Edge *end;

        std::uint64_t
        key() const
        {
            return at != end ? at->first : exhausted;
        }
    };
    std::vector<Cursor> cursors;
    std::size_t total = 0;
    for (std::span<const Edge> run : runs) {
        if (run.empty())
            continue;
        cursors.push_back({run.data(), run.data() + run.size()});
        total += run.size();
    }
    std::vector<Edge> out;
    if (cursors.size() == 1) {
        out.assign(cursors[0].at, cursors[0].end);
        return out;
    }
    out.reserve(total);
    for (;;) {
        std::uint64_t key = exhausted;
        for (const Cursor &c : cursors)
            key = std::min(key, c.key());
        if (key == exhausted)
            break;
        std::uint64_t count = 0;
        for (Cursor &c : cursors)
            if (c.key() == key)
                count += (c.at++)->second;
        out.emplace_back(key, count);
    }
    return out;
}

NeighbourLists
neighbourLists(std::span<const ConflictGraph::Edge> edges,
               std::size_t node_count)
{
    NeighbourLists lists;
    std::vector<std::size_t> &offsets = lists.offsets;
    offsets.assign(node_count + 1, 0);
    for (const auto &[key, count] : edges) {
        auto [a, b] = ConflictGraph::unpackEdge(key);
        ++offsets[a + 1];
        ++offsets[b + 1];
    }
    for (std::size_t v = 0; v < node_count; ++v)
        offsets[v + 1] += offsets[v];
    lists.targets.resize(offsets[node_count]);
    lists.weights.resize(offsets[node_count]);
    // The key order fills every list in ascending order (see the
    // precondition).
    std::vector<std::size_t> fill(offsets.begin(), offsets.end() - 1);
    for (const auto &[key, count] : edges) {
        auto [a, b] = ConflictGraph::unpackEdge(key);
        lists.targets[fill[a]] = b;
        lists.weights[fill[a]++] = count;
        lists.targets[fill[b]] = a;
        lists.weights[fill[b]++] = count;
    }
    return lists;
}

} // namespace bwsa
