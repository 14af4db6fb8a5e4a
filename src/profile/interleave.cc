#include "profile/interleave.hh"

#include "obs/branch_telemetry.hh"
#include "obs/metrics.hh"
#include "obs/phase_detect.hh"
#include "obs/phase_tracer.hh"
#include "util/bitfield.hh"
#include "util/logging.hh"

namespace bwsa
{

InterleaveTracker::InterleaveTracker(ConflictGraph &graph,
                                     const InterleaveConfig &config)
    : _graph(graph), _config(config)
{
}

InterleaveTracker::Slot
InterleaveTracker::slotFor(BranchPc pc)
{
    if (!_table.empty()) {
        std::size_t mask = _table.size() - 1;
        for (std::size_t i = mix64(pc) & mask;; i = (i + 1) & mask) {
            const TableEntry &entry = _table[i];
            if (entry.slot == npos)
                break;
            if (entry.pc == pc)
                return entry.slot;
        }
    }

    // First occurrence: the next slot, in first-occurrence order.
    Slot slot = static_cast<Slot>(_pcs.size());
    if ((_pcs.size() + 1) * 2 > _table.size())
        growTable();
    std::size_t mask = _table.size() - 1;
    std::size_t i = mix64(pc) & mask;
    while (_table[i].slot != npos)
        i = (i + 1) & mask;
    _table[i] = {pc, slot};
    _pcs.push_back(pc);
    _counts.emplace_back();
    _rows.emplace_back();
    _pos.push_back(npos);
    return slot;
}

void
InterleaveTracker::growTable()
{
    std::vector<TableEntry> old = std::move(_table);
    _table.assign(old.empty() ? 64 : old.size() * 2, TableEntry{});
    std::size_t mask = _table.size() - 1;
    for (const TableEntry &entry : old) {
        if (entry.slot == npos)
            continue;
        std::size_t i = mix64(entry.pc) & mask;
        while (_table[i].slot != npos)
            i = (i + 1) & mask;
        _table[i] = entry;
    }
}

void
InterleaveTracker::evictHead()
{
    if (windowSize() == 0)
        bwsa_panic("evictHead on empty window");
    _pos[_window[_window_begin]] = npos;
    ++_window_begin;
    if (_window_begin < windowSize())
        return;
    // The dead prefix outgrew the live part: slide the window down.
    _window.erase(_window.begin(),
                  _window.begin() +
                      static_cast<std::ptrdiff_t>(_window_begin));
    _window_begin = 0;
    for (std::size_t i = 0; i < _window.size(); ++i)
        _pos[_window[i]] = static_cast<Slot>(i);
}

void
InterleaveTracker::onBranch(const BranchRecord &record)
{
    const std::size_t known = _pcs.size();
    Slot id = slotFor(record.pc);
    ++_counts[id].executed;
    if (record.taken)
        ++_counts[id].taken;
    ++_unflushed_records;
    if (_config.telemetry)
        _config.telemetry->record(record.pc, record.taken,
                                  record.timestamp);
    if (_config.phase)
        _config.phase->sample(record.pc, record.timestamp);

    const Slot pos = _pos[id];
    if (pos != npos) {
        // Every branch after this one's position last ran after its
        // previous instance: record each interleaving while shifting
        // the suffix down over the vacated position.
        Slot *window = _window.data();
        Slot *slot_pos = _pos.data();
        const std::size_t end = _window.size();
        CounterRow &row = _rows[id];
        const std::size_t live = _pcs.size();
        if (!row.dense.empty() && !row.dense.fits(live) &&
            row.dense.nonzero() * 4 < live) {
            // Density rule again before widening: a row that fell
            // below it goes back to sparse, so no row ever costs more
            // than its hash form would.
            row.dense.forEach([&](std::uint32_t key, std::uint64_t n) {
                row.sparse.increment(key, n);
            });
            row.dense = DenseCounterRow();
        }
        if (!row.dense.empty()) {
            std::uint32_t *cells = row.dense.beginPass(live);
            for (std::size_t i = pos + 1; i < end; ++i) {
                Slot cur = window[i];
                ++cells[cur];
                window[i - 1] = cur;
                slot_pos[cur] = static_cast<Slot>(i - 1);
            }
        } else {
            for (std::size_t i = pos + 1; i < end; ++i) {
                Slot cur = window[i];
                row.sparse.increment(cur);
                window[i - 1] = cur;
                slot_pos[cur] = static_cast<Slot>(i - 1);
            }
            // Density rule: 4 B per live slot is no more than the
            // hash row's >= 17 B per distinct entry.
            if (row.sparse.size() * 4 >= live) {
                row.dense.adopt(row.sparse, live);
                row.sparse = FlatCounterMap();
            }
        }
        _pair_increments += end - 1 - pos;
        window[end - 1] = id;
        slot_pos[id] = static_cast<Slot>(end - 1);
        return;
    }

    // Fresh occurrence: first sight, or evicted from the window (its
    // true interleave set spans more than max_window distinct
    // branches).
    if (id < known)
        ++_evicted_reentries;
    _pos[id] = static_cast<Slot>(_window.size());
    _window.push_back(id);
    if (_config.max_window != 0 && windowSize() > _config.max_window)
        evictHead();
}

std::vector<BranchPc>
InterleaveTracker::windowPcs() const
{
    std::vector<BranchPc> pcs;
    pcs.reserve(windowSize());
    for (std::size_t i = _window_begin; i < _window.size(); ++i)
        pcs.push_back(_pcs[_window[i]]);
    return pcs;
}

void
InterleaveTracker::onEnd()
{
    if (_unflushed_records == 0)
        return;
    _unflushed_records = 0;
    BWSA_SPAN("profile.flush");

    // Nodes in slot order: into an empty graph the ids equal the
    // slots, i.e. first-occurrence order.
    std::vector<NodeId> ids(_pcs.size());
    for (Slot s = 0; s < _pcs.size(); ++s) {
        ids[s] = _graph.restoreNode(_pcs[s], _counts[s].executed,
                                    _counts[s].taken);
        _counts[s] = SlotCounts{};
    }
    // Edges: both directions of a pair add up in the graph.
    for (Slot a = 0; a < _rows.size(); ++a) {
        auto add = [&](std::uint32_t b, std::uint64_t count) {
            _graph.addInterleave(ids[a], ids[b], count);
        };
        CounterRow &row = _rows[a];
        if (!row.dense.empty())
            row.dense.forEach(add);
        else
            row.sparse.forEach(add);
        row = CounterRow{}; // release the buffers
    }

    // Whole-stream analysis totals; onBranch() stays uninstrumented
    // (profiling is a hot path).
    auto &registry = obs::MetricsRegistry::global();
    registry.counter("profile.flushes").inc();
    registry.counter("profile.pair_increments")
        .inc(_pair_increments - _flushed_pair_increments);
    registry.counter("profile.evicted_reentries")
        .inc(_evicted_reentries - _flushed_evictions);
    _flushed_pair_increments = _pair_increments;
    _flushed_evictions = _evicted_reentries;
    registry.gauge("profile.window_size")
        .set(static_cast<double>(windowSize()));
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
