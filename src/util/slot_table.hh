/**
 * @file
 * SlotTable numbers 64-bit keys (branch pcs) with dense slots in
 * first-insertion order: an open-addressed, linear-probing table with
 * power-of-two capacity, kept at most half full.  The interleave
 * tracker and the batched replayer key their per-branch arrays by its
 * slots, and the frequency filter probes one as its selected set.
 */

#ifndef BWSA_UTIL_SLOT_TABLE_HH
#define BWSA_UTIL_SLOT_TABLE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/bitfield.hh"

namespace bwsa
{

class SlotTable
{
  public:
    /** find() result for a key never added; also the empty mark. */
    static constexpr std::uint32_t npos = ~std::uint32_t(0);

    /** Slot of @p key, or npos when it was never added. */
    std::uint32_t
    find(std::uint64_t key) const
    {
        if (_entries.empty())
            return npos;
        const std::size_t mask = _entries.size() - 1;
        for (std::size_t i = mix64(key) & mask;; i = (i + 1) & mask) {
            const Entry &entry = _entries[i];
            if (entry.slot == npos || entry.key == key)
                return entry.slot;
        }
    }

    /** Add @p key, which must be absent, as slot size(); return it. */
    std::uint32_t
    add(std::uint64_t key)
    {
        if ((_size + 1) * 2 > _entries.size())
            grow();
        const auto slot = static_cast<std::uint32_t>(_size++);
        place({key, slot});
        return slot;
    }

    /** Keys added so far. */
    std::size_t size() const { return _size; }

    /** Heap bytes the table holds. */
    std::size_t
    bytes() const
    {
        return _entries.capacity() * sizeof(Entry);
    }

  private:
    struct Entry
    {
        std::uint64_t key = 0;
        std::uint32_t slot = npos;
    };

    void
    place(Entry entry)
    {
        const std::size_t mask = _entries.size() - 1;
        std::size_t i = mix64(entry.key) & mask;
        while (_entries[i].slot != npos)
            i = (i + 1) & mask;
        _entries[i] = entry;
    }

    void
    grow()
    {
        std::vector<Entry> old = std::move(_entries);
        _entries.assign(old.empty() ? 64 : old.size() * 2, Entry{});
        for (const Entry &entry : old)
            if (entry.slot != npos)
                place(entry);
    }

    std::vector<Entry> _entries;
    std::size_t _size = 0;
};

} // namespace bwsa

#endif // BWSA_UTIL_SLOT_TABLE_HH
