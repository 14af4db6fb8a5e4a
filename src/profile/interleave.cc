#include "profile/interleave.hh"

#include "obs/branch_telemetry.hh"
#include "obs/metrics.hh"
#include "obs/phase_detect.hh"
#include "obs/phase_tracer.hh"
#include "util/logging.hh"

namespace bwsa
{

InterleaveTracker::InterleaveTracker(ConflictGraph &graph,
                                     const InterleaveConfig &config)
    : _graph(graph), _config(config)
{
}

void
InterleaveTracker::ensureNode(NodeId id)
{
    if (id >= _list.size()) {
        _list.resize(id + 1);
        _pair_counts.resize(id + 1);
    }
}

void
InterleaveTracker::unlink(NodeId id)
{
    ListNode &n = _list[id];
    if (n.prev != invalid_node)
        _list[n.prev].next = n.next;
    else
        _head = n.next;
    if (n.next != invalid_node)
        _list[n.next].prev = n.prev;
    else
        _tail = n.prev;
    n.prev = invalid_node;
    n.next = invalid_node;
    n.in_list = false;
    --_window_size;
}

void
InterleaveTracker::appendTail(NodeId id)
{
    ListNode &n = _list[id];
    n.prev = _tail;
    n.next = invalid_node;
    n.in_list = true;
    if (_tail != invalid_node)
        _list[_tail].next = id;
    else
        _head = id;
    _tail = id;
    ++_window_size;
}

void
InterleaveTracker::evictHead()
{
    if (_head == invalid_node)
        bwsa_panic("evictHead on empty window");
    unlink(_head);
}

void
InterleaveTracker::onBranch(const BranchRecord &record)
{
    NodeId id = _graph.addOrGetNode(record.pc);
    ensureNode(id);
    _graph.recordExecution(id, record.taken);
    if (_config.telemetry)
        _config.telemetry->record(record.pc, record.taken,
                                  record.timestamp);
    if (_config.phase)
        _config.phase->sample(record.pc, record.timestamp);

    ListNode &node = _list[id];
    if (node.in_list) {
        // Every branch after this node's position last ran after this
        // branch's previous instance: record each interleaving.
        FlatCounterMap &counts = _pair_counts[id];
        for (NodeId cur = node.next; cur != invalid_node;
             cur = _list[cur].next) {
            counts.increment(cur);
            ++_pair_increments;
        }
        unlink(id);
    } else if (node.seen) {
        // Evicted from the window: its true interleave set spans more
        // than max_window distinct branches; treated as fresh.
        ++_evicted_reentries;
    }
    node.seen = true;
    appendTail(id);

    if (_config.max_window != 0 && _window_size > _config.max_window)
        evictHead();
}

std::vector<BranchPc>
InterleaveTracker::windowPcs() const
{
    std::vector<BranchPc> pcs;
    pcs.reserve(_window_size);
    for (NodeId cur = _head; cur != invalid_node;
         cur = _list[cur].next)
        pcs.push_back(_graph.node(cur).pc);
    return pcs;
}

void
InterleaveTracker::onEnd()
{
    BWSA_SPAN("profile.flush");
    for (NodeId a = 0; a < _pair_counts.size(); ++a) {
        FlatCounterMap &counts = _pair_counts[a];
        if (counts.empty())
            continue;
        counts.forEach([&](std::uint32_t b, std::uint64_t count) {
            _graph.addInterleave(a, b, count);
        });
        counts = FlatCounterMap(); // release the buffer
    }

    // Whole-stream analysis totals; the per-branch loop above and
    // onBranch() stay uninstrumented (profiling is a hot path).
    auto &registry = obs::MetricsRegistry::global();
    registry.counter("profile.flushes").inc();
    registry.counter("profile.pair_increments")
        .inc(_pair_increments - _flushed_pair_increments);
    registry.counter("profile.evicted_reentries")
        .inc(_evicted_reentries - _flushed_evictions);
    _flushed_pair_increments = _pair_increments;
    _flushed_evictions = _evicted_reentries;
    registry.gauge("profile.window_size")
        .set(static_cast<double>(_window_size));
    registry.gauge("graph.nodes")
        .set(static_cast<double>(_graph.nodeCount()));
    registry.gauge("graph.edges")
        .set(static_cast<double>(_graph.edgeCount()));
}

ConflictGraph
profileTrace(const TraceSource &source, const InterleaveConfig &config)
{
    ConflictGraph graph;
    InterleaveTracker tracker(graph, config);
    source.replay(tracker);
    return graph;
}

} // namespace bwsa
