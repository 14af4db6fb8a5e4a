#include "profile/interleave.hh"

#include <algorithm>
#include <numeric>
#include <type_traits>

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
InterleaveTracker::slotOf(BranchPc pc) const
{
    if (_table.empty())
        return npos;
    std::size_t mask = _table.size() - 1;
    for (std::size_t i = mix64(pc) & mask;; i = (i + 1) & mask) {
        const TableEntry &entry = _table[i];
        if (entry.slot == npos || entry.pc == pc)
            return entry.slot;
    }
}

InterleaveTracker::Slot
InterleaveTracker::slotFor(BranchPc pc)
{
    Slot known = slotOf(pc);
    if (known != npos)
        return known;

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
    _unflushed = true;
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
InterleaveTracker::addInterleavings(Slot slot, Slot prefix,
                                    const std::vector<Slot> &others)
{
    CounterRow &row = _rows[slot];
    const std::size_t live = _pcs.size();
    // Same density rule as onBranch(), applied to the row as it will
    // be after this pass.
    if (row.dense.empty() &&
        (row.sparse.size() + prefix + others.size()) * 4 >= live) {
        row.dense.adopt(row.sparse, live);
        row.sparse = FlatCounterMap();
    }
    if (!row.dense.empty()) {
        std::uint32_t *cells = row.dense.beginPass(live);
        for (Slot s = 0; s < prefix; ++s)
            ++cells[s];
        for (Slot s : others)
            ++cells[s];
    } else {
        for (Slot s = 0; s < prefix; ++s)
            row.sparse.increment(s);
        for (Slot s : others)
            row.sparse.increment(s);
    }
    _unflushed = true;
}

std::vector<NodeId>
InterleaveTracker::flushNodes()
{
    _unflushed = false;
    // Slot order: into an empty graph the ids equal the slots, i.e.
    // first-occurrence order.
    std::vector<NodeId> ids(_pcs.size());
    for (Slot s = 0; s < _pcs.size(); ++s) {
        ids[s] = _graph.restoreNode(_pcs[s], _counts[s].executed,
                                    _counts[s].taken);
        _counts[s] = SlotCounts{};
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
    return ids;
}

template <typename Rows>
std::vector<ConflictGraph::Edge>
InterleaveTracker::rowEdges(Rows &rows, const std::vector<NodeId> &ids)
{
    const std::size_t n = rows.size();
    if (ids.size() != n)
        bwsa_panic("drainEdges: ", ids.size(), " ids for ", n,
                   " slots");
    // Work in rank space: slots in ascending node id, so pairs
    // ordered by (min rank, max rank) are ordered by edge key.  With
    // ids equal to the slots (every flush into a graph only this
    // tracker fills) the ranks are the slots.
    std::vector<Slot> order(n);
    std::iota(order.begin(), order.end(), Slot(0));
    if (!std::is_sorted(ids.begin(), ids.end()))
        std::sort(order.begin(), order.end(),
                  [&ids](Slot x, Slot y) { return ids[x] < ids[y]; });
    std::vector<Slot> rank(n);
    for (Slot r = 0; r < n; ++r)
        rank[order[r]] = r;

    auto visit = [&rows](Slot s, auto &&fn) {
        const CounterRow &row = rows[s];
        if (!row.dense.empty())
            row.dense.forEach(fn);
        else
            row.sparse.forEach(fn);
    };

    // The lower triangle (row[b][a], rank a < rank b), bucketed by
    // rank a.  Rows are visited in ascending rank b, so every bucket
    // comes out sorted by rank b.
    struct Cell
    {
        Slot rank;
        std::uint64_t count;
    };
    std::vector<std::size_t> start(n + 1, 0);
    std::size_t upper_cells = 0;
    for (Slot b = 0; b < n; ++b)
        visit(b, [&](std::uint32_t a, std::uint64_t) {
            if (rank[a] < rank[b])
                ++start[rank[a] + 1];
            else
                ++upper_cells;
        });
    for (std::size_t r = 0; r < n; ++r)
        start[r + 1] += start[r];
    std::vector<Cell> lower(start[n]);
    {
        std::vector<std::size_t> fill(start.begin(), start.end() - 1);
        for (Slot rb = 0; rb < n; ++rb)
            visit(order[rb], [&](std::uint32_t a, std::uint64_t count) {
                if (rank[a] < rb)
                    lower[fill[rank[a]]++] = {rb, count};
            });
    }

    // Row a's upper triangle in ascending rank, merged with its
    // bucket, gives the edges (a, b) with rank b > rank a in key
    // order.
    std::vector<ConflictGraph::Edge> edges;
    edges.reserve(upper_cells + lower.size());
    std::vector<Cell> upper;
    for (Slot ra = 0; ra < n; ++ra) {
        auto &row = rows[order[ra]];
        upper.clear();
        if (!row.dense.empty()) {
            for (Slot rb = ra + 1; rb < n; ++rb)
                if (std::uint64_t count = row.dense.count(order[rb]))
                    upper.push_back({rb, count});
        } else {
            row.sparse.forEach([&](std::uint32_t b, std::uint64_t count) {
                if (rank[b] > ra)
                    upper.push_back({rank[b], count});
            });
            std::sort(upper.begin(), upper.end(),
                      [](const Cell &x, const Cell &y) {
                          return x.rank < y.rank;
                      });
        }
        if constexpr (!std::is_const_v<Rows>)
            row = CounterRow{}; // release the buffers

        auto u = upper.begin();
        const Cell *l = lower.data() + start[ra];
        const Cell *l_end = lower.data() + start[ra + 1];
        const NodeId id = ids[order[ra]];
        while (u != upper.end() || l != l_end) {
            Cell cell;
            if (l == l_end || (u != upper.end() && u->rank < l->rank)) {
                cell = *u++;
            } else if (u == upper.end() || l->rank < u->rank) {
                cell = *l++;
            } else {
                cell = {u->rank, u->count + l->count};
                ++u;
                ++l;
            }
            edges.emplace_back(
                ConflictGraph::packEdge(id, ids[order[cell.rank]]),
                cell.count);
        }
    }
    return edges;
}

std::vector<ConflictGraph::Edge>
InterleaveTracker::drainEdges(const std::vector<NodeId> &ids)
{
    return rowEdges(_rows, ids);
}

ConflictGraph
InterleaveTracker::pendingGraph() const
{
    ConflictGraph graph;
    if (!_unflushed)
        return graph;
    std::vector<NodeId> ids(_pcs.size());
    for (Slot s = 0; s < _pcs.size(); ++s)
        ids[s] = graph.restoreNode(_pcs[s], _counts[s].executed,
                                   _counts[s].taken);
    std::vector<std::vector<ConflictGraph::Edge>> runs;
    runs.push_back(rowEdges(_rows, ids));
    graph.mergeEdges(std::move(runs));
    return graph;
}

std::uint64_t
InterleaveTracker::residentBytes() const
{
    std::uint64_t bytes = _table.capacity() * sizeof(TableEntry) +
                          _pcs.capacity() * sizeof(BranchPc) +
                          _counts.capacity() * sizeof(SlotCounts) +
                          _rows.capacity() * sizeof(CounterRow) +
                          _pos.capacity() * sizeof(Slot) +
                          _window.capacity() * sizeof(Slot);
    for (const CounterRow &row : _rows)
        bytes += row.sparse.bytes() + row.dense.bytes();
    return bytes;
}

void
InterleaveTracker::onEnd()
{
    if (!_unflushed)
        return;
    BWSA_SPAN("profile.flush");
    std::vector<NodeId> ids = flushNodes();
    std::vector<std::vector<ConflictGraph::Edge>> runs;
    runs.push_back(drainEdges(ids));
    _graph.mergeEdges(std::move(runs));

    auto &registry = obs::MetricsRegistry::global();
    registry.gauge("profile.window_size")
        .set(static_cast<double>(windowSize()));
    registry.gauge("graph.nodes")
        .set(static_cast<double>(_graph.nodeCount()));
    registry.gauge("graph.edges")
        .set(static_cast<double>(_graph.edgeCount()));
}

} // namespace bwsa
