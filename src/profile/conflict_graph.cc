#include "profile/conflict_graph.hh"

#include <algorithm>

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

void
ConflictGraph::addInterleave(NodeId a, NodeId b, std::uint64_t count)
{
    if (a == b)
        bwsa_panic("addInterleave: self edge on node ", a);
    if (a >= _nodes.size() || b >= _nodes.size())
        bwsa_panic("addInterleave: node out of range");
    _edges[packEdge(a, b)] += count;
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
    auto it = _edges.find(packEdge(a, b));
    return it == _edges.end() ? 0 : it->second;
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
    ConflictGraph out;
    out._nodes = _nodes;
    out._pc_to_node = _pc_to_node;
    out._total_executions = _total_executions;
    out._edges.reserve(_edges.size());
    for (const auto &[key, count] : _edges)
        if (count >= threshold)
            out._edges.emplace(key, count);

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
    for (NodeId id = 0; id < other._nodes.size(); ++id) {
        const ConflictNode &n = other._nodes[id];
        NodeId mine = addOrGetNode(n.pc);
        _nodes[mine].executed += n.executed;
        _nodes[mine].taken += n.taken;
        remap[id] = mine;
    }
    _total_executions += other._total_executions;
    for (const auto &[key, count] : other._edges) {
        auto [a, b] = unpackEdge(key);
        addInterleave(remap[a], remap[b], count);
    }
}

std::vector<std::vector<std::pair<NodeId, std::uint64_t>>>
ConflictGraph::adjacency() const
{
    std::vector<std::vector<std::pair<NodeId, std::uint64_t>>> adj(
        _nodes.size());
    for (const auto &[key, count] : _edges) {
        auto [a, b] = unpackEdge(key);
        adj[a].emplace_back(b, count);
        adj[b].emplace_back(a, count);
    }
    for (auto &list : adj)
        std::sort(list.begin(), list.end());
    return adj;
}

} // namespace bwsa
