#include "profile/stitch.hh"

#include <algorithm>

namespace bwsa
{

std::vector<BranchPc>
composeBoundary(const std::vector<BranchPc> &before,
                const InterleaveTracker &segment)
{
    std::vector<BranchPc> window = segment.windowPcs();
    std::vector<BranchPc> out;
    out.reserve(before.size() + window.size());
    for (BranchPc pc : before)
        if (segment.slotOf(pc) == InterleaveTracker::npos)
            out.push_back(pc);
    out.insert(out.end(), window.begin(), window.end());
    std::size_t max_window = segment.maxWindow();
    if (max_window != 0 && out.size() > max_window)
        out.erase(out.begin(),
                  out.begin() + static_cast<std::ptrdiff_t>(
                                    out.size() - max_window));
    return out;
}

std::uint64_t
stitchBoundary(const std::vector<BranchPc> &boundary,
               InterleaveTracker &segment)
{
    using Slot = InterleaveTracker::Slot;
    constexpr Slot npos = InterleaveTracker::npos;
    const std::size_t w = boundary.size();
    const std::size_t max_window = segment.maxWindow();
    // |A(X)| >= f, so with a bounded window no slot at or past
    // max_window is owed anything.
    std::size_t limit = segment.slotCount();
    if (max_window != 0)
        limit = std::min(limit, max_window);

    // Each boundary entry's slot, and each early slot's position p in
    // the boundary (npos: the branch is not a boundary entry).
    std::vector<Slot> slot_at(w);
    std::vector<Slot> pos_of(limit, npos);
    for (std::size_t p = 0; p < w; ++p) {
        slot_at[p] = segment.slotOf(boundary[p]);
        if (slot_at[p] < limit)
            pos_of[slot_at[p]] = static_cast<Slot>(p);
    }

    // Fenwick tree over boundary positions of the old branches whose
    // slot precedes the current one: how many W[j > p] also lie in
    // S[0..f), i.e. count once.
    std::vector<std::uint32_t> tree(w + 1, 0);
    std::size_t marked = 0;
    auto markedUpTo = [&](std::size_t p) { // positions <= p
        std::size_t n = 0;
        for (std::size_t i = p + 1; i > 0; i -= i & (~i + 1))
            n += tree[i];
        return n;
    };

    std::uint64_t increments = 0;
    std::vector<Slot> others;
    for (Slot f = 0; f < limit; ++f) {
        const Slot p = pos_of[f];
        if (p == npos)
            continue;
        const std::size_t both = marked - markedUpTo(p);
        const std::size_t owed = f + (w - 1 - p) - both;
        for (std::size_t i = p + 1; i <= w; i += i & (~i + 1))
            ++tree[i];
        ++marked;
        if (max_window != 0 && owed >= max_window)
            continue; // evicted before it re-ran: fresh, as in the shard

        others.clear();
        for (std::size_t j = p + 1; j < w; ++j) {
            if (slot_at[j] == npos)
                slot_at[j] = segment.slotFor(boundary[j]);
            else if (slot_at[j] < f)
                continue; // already in S[0..f)
            others.push_back(slot_at[j]);
        }
        segment.addInterleavings(f, f, others);
        increments += owed;
    }
    return increments;
}

} // namespace bwsa
