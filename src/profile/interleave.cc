#include "profile/interleave.hh"

#include <algorithm>
#include <numeric>
#include <type_traits>

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

bool
InterleaveTracker::denseRow(std::size_t distinct, std::size_t live) const
{
    return underFloor(live) || distinct * 4 >= live;
}

InterleaveTracker::Slot
InterleaveTracker::slotFor(BranchPc pc)
{
    Slot known = _table.find(pc);
    if (known != npos)
        return known;

    // First occurrence: the next slot, in first-occurrence order.
    Slot slot = _table.add(pc);
    _pcs.push_back(pc);
    _counts.emplace_back();
    _rows.emplace_back();
    _pos.push_back(npos);
    return slot;
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
    InterleaveTracker::onBlock({&record, 1});
}

void
InterleaveTracker::onBlock(std::span<const BranchRecord> records)
{
    if (records.empty())
        return;
    _unflushed = true;
    obs::BranchTelemetryMap *const telemetry = _config.telemetry;
    obs::PhaseAccumulator *const phase = _config.phase;
    for (const BranchRecord &record : records) {
        const std::size_t known = _pcs.size();
        const Slot id = slotFor(record.pc);
        ++_counts[id].executed;
        _counts[id].taken += record.taken;
        if (telemetry)
            telemetry->record(record.pc, record.taken,
                              record.timestamp);
        if (phase)
            phase->sample(record.pc, record.timestamp);

        const Slot pos = _pos[id];
        if (pos == npos) {
            // Fresh occurrence: first sight, or evicted from the
            // window (its true interleave set spans more than
            // max_window distinct branches).
            if (id < known)
                ++_evicted_reentries;
            _pos[id] = static_cast<Slot>(_window.size());
            _window.push_back(id);
            if (_config.max_window != 0 &&
                windowSize() > _config.max_window)
                evictHead();
            continue;
        }

        // Every branch after this one's position last ran after its
        // previous instance: record each interleaving while shifting
        // the suffix down over the vacated position.
        const std::size_t end = _window.size();
        const std::size_t passed = end - 1 - pos;
        if (passed == 0)
            continue; // it ran last: nothing interleaved
        Slot *window = _window.data();
        Slot *slot_pos = _pos.data();
        CounterRow &row = _rows[id];
        const std::size_t live = _pcs.size();
        bool dense = !row.dense.empty();
        if (!dense && row.sparse.empty() && denseRow(passed, live)) {
            // First pass: the row will hold exactly the passed slots.
            dense = true;
            ++_forms.births_dense;
        } else if (dense && !row.dense.fits(live) &&
                   !denseRow(row.dense.nonzero(), live)) {
            // Widening a row the rule no longer calls dense: back to
            // sparse, so above the floor no row costs more than its
            // hash form would.
            row.dense.forEach([&](std::uint32_t key, std::uint64_t n) {
                row.sparse.increment(key, n);
            });
            row.dense = DenseCounterRow();
            dense = false;
            ++_forms.flips;
        }
        if (dense) {
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
            if (denseRow(row.sparse.size(), live)) {
                row.dense.adopt(row.sparse, live);
                row.sparse = FlatCounterMap();
                ++_forms.adoptions;
            }
        }
        _pair_increments += passed;
        window[end - 1] = id;
        slot_pos[id] = static_cast<Slot>(end - 1);
    }
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
    // The rule of onBlock(), applied to the row as it will be after
    // this pass (at most this many distinct keys).
    if (row.dense.empty() &&
        denseRow(row.sparse.size() + prefix + others.size(), live)) {
        ++(row.sparse.empty() ? _forms.births_dense : _forms.adoptions);
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

    // Whole-stream analysis totals; onBlock() stays uninstrumented
    // (profiling is a hot path).
    auto &registry = obs::MetricsRegistry::global();
    registry.counter("profile.flushes").inc();
    registry.counter("profile.pair_increments")
        .inc(_pair_increments - _flushed_pair_increments);
    registry.counter("profile.evicted_reentries")
        .inc(_evicted_reentries - _flushed_evictions);
    registry.counter("profile.row_births_dense")
        .inc(_forms.births_dense - _flushed_forms.births_dense);
    registry.counter("profile.row_adoptions")
        .inc(_forms.adoptions - _flushed_forms.adoptions);
    registry.counter("profile.row_flips")
        .inc(_forms.flips - _flushed_forms.flips);
    _flushed_pair_increments = _pair_increments;
    _flushed_evictions = _evicted_reentries;
    _flushed_forms = _forms;
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
    std::uint64_t bytes = _table.bytes() +
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
