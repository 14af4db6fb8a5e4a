#include "profile/stitch.hh"

#include "util/logging.hh"

namespace bwsa
{

StitchSink::StitchSink(const std::vector<BranchPc> &seed,
                       std::size_t max_window)
    : _max_window(max_window)
{
    for (BranchPc pc : seed)
        appendTail(oldSlotFor(pc));
    _old_remaining = seed.size();
}

void
StitchSink::onBranch(const BranchRecord &record)
{
    ++_records;
    std::uint32_t id = slotFor(record.pc);
    Slot &slot = _slots[id];
    if (slot.in_list) {
        if (slot.old_entry) {
            // Anchor before the boundary: the cold segment tracker
            // recorded nothing for this record.  Every branch after
            // this one in the window ran since its previous instance
            // -- the serial tracker's exact increment set.
            for (std::uint32_t cur = slot.next; cur != npos;
                 cur = _slots[cur].next) {
                ++_deltas[packPair(id, cur)];
                ++_increments;
            }
            slot.old_entry = false;
            --_old_remaining;
        }
        unlink(id);
    }
    appendTail(id);
    if (_max_window != 0 && _size > _max_window)
        evictHead();
}

void
StitchSink::applyTo(ConflictGraph &graph) const
{
    for (const auto &[key, count] : _deltas) {
        // Every branch the stitch can see executed in some segment,
        // so both are already nodes of the merged graph.
        NodeId a = graph.findNode(
            _slots[static_cast<std::uint32_t>(key >> 32)].pc);
        NodeId b = graph.findNode(
            _slots[static_cast<std::uint32_t>(key)].pc);
        if (a == invalid_node || b == invalid_node)
            bwsa_panic("stitch pass met a pc absent from the merged "
                       "graph");
        graph.addInterleave(a, b, count);
    }
}

std::uint32_t
StitchSink::slotFor(BranchPc pc)
{
    auto it = _pc_to_slot.find(pc);
    if (it != _pc_to_slot.end())
        return it->second;
    std::uint32_t id = static_cast<std::uint32_t>(_slots.size());
    Slot slot;
    slot.pc = pc;
    _slots.push_back(slot);
    _pc_to_slot.emplace(pc, id);
    return id;
}

std::uint32_t
StitchSink::oldSlotFor(BranchPc pc)
{
    std::uint32_t id = slotFor(pc);
    _slots[id].old_entry = true;
    return id;
}

void
StitchSink::unlink(std::uint32_t id)
{
    Slot &slot = _slots[id];
    if (slot.prev != npos)
        _slots[slot.prev].next = slot.next;
    else
        _head = slot.next;
    if (slot.next != npos)
        _slots[slot.next].prev = slot.prev;
    else
        _tail = slot.prev;
    slot.prev = npos;
    slot.next = npos;
    slot.in_list = false;
    --_size;
}

void
StitchSink::appendTail(std::uint32_t id)
{
    Slot &slot = _slots[id];
    slot.prev = _tail;
    slot.next = npos;
    slot.in_list = true;
    if (_tail != npos)
        _slots[_tail].next = id;
    else
        _head = id;
    _tail = id;
    ++_size;
}

void
StitchSink::evictHead()
{
    if (_head == npos)
        bwsa_panic("stitch evictHead on empty window");
    std::uint32_t id = _head;
    Slot &slot = _slots[id];
    if (slot.old_entry) {
        // Evicted before re-running: the serial tracker would treat
        // its next execution as fresh too.
        slot.old_entry = false;
        --_old_remaining;
    }
    unlink(id);
}

std::vector<BranchPc>
composeBoundary(const std::vector<BranchPc> &before,
                const ConflictGraph &segment_graph,
                const std::vector<BranchPc> &segment_window,
                std::size_t max_window)
{
    std::vector<BranchPc> out;
    out.reserve(before.size() + segment_window.size());
    for (BranchPc pc : before)
        if (segment_graph.findNode(pc) == invalid_node)
            out.push_back(pc);
    out.insert(out.end(), segment_window.begin(),
               segment_window.end());
    if (max_window != 0 && out.size() > max_window)
        out.erase(out.begin(),
                  out.begin() + static_cast<std::ptrdiff_t>(
                                    out.size() - max_window));
    return out;
}

} // namespace bwsa
