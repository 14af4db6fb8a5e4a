/**
 * @file
 * The interleave tracker's two counter-row representations.
 *
 * FlatCounterMap is an open-addressed map from 32-bit keys to 64-bit
 * counts: a linear-probing flat table with power-of-two capacity, far
 * faster than unordered_map.  It holds the tracker's *sparse* rows,
 * those touching few of the live branch slots once more slots are
 * live than the tracker's row floor.
 *
 * DenseCounterRow is a u32 array indexed by key: one indexed add per
 * increment instead of a hash probe.  It holds every row while the
 * live slots fit the floor (from the row's first pass, so no row
 * climbs the hash table's growth ladder first) and, past that, the
 * rows touching a large share of the slots.  A widening reserves a
 * quarter of headroom, so a floor row holds at most 1.25 cells per
 * floor slot: 5 * floor^2 B for all of them (profile/interleave.hh).
 * Its cells cannot wrap: the owner bounds how many times any one
 * cell can grow (one pass per re-execution, at most one increment per
 * cell per pass) and the row spills its cells into u64 storage before
 * that bound could exceed a u32.
 */

#ifndef BWSA_UTIL_FLAT_COUNTER_HH
#define BWSA_UTIL_FLAT_COUNTER_HH

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/bitfield.hh"

namespace bwsa
{

/**
 * Linear-probing hash map specialized for counting.
 *
 * Keys are 32-bit; the all-ones value is reserved as the empty slot
 * marker.  Grows at 70% load.  Iteration order is unspecified.
 */
class FlatCounterMap
{
  public:
    /** Reserved key marking an empty slot. */
    static constexpr std::uint32_t empty_key = ~std::uint32_t(0);

    FlatCounterMap() = default;

    /** Add @p delta to the count of @p key (inserting at 0 first). */
    void
    increment(std::uint32_t key, std::uint64_t delta = 1)
    {
        // Probe first: the overwhelmingly common case is a hit on an
        // existing key, which must never trigger a grow -- a hot key
        // incremented at the load-factor boundary would otherwise
        // rehash the whole table for nothing.
        if (!_keys.empty()) {
            std::size_t slot = probe(key);
            if (_keys[slot] != empty_key) {
                _values[slot] += delta;
                return;
            }
        }
        if (_size + 1 > (_keys.size() * 7) / 10)
            grow();
        std::size_t slot = probe(key);
        _keys[slot] = key;
        _values[slot] = delta;
        ++_size;
    }

    /** Count of @p key; 0 when absent. */
    std::uint64_t
    count(std::uint32_t key) const
    {
        if (_keys.empty())
            return 0;
        std::size_t slot = probeConst(key);
        return _keys[slot] == empty_key ? 0 : _values[slot];
    }

    /** Number of distinct keys. */
    std::size_t size() const { return _size; }

    /** Allocated slot count (power of two; grows at 70% load). */
    std::size_t capacity() const { return _keys.size(); }

    bool empty() const { return _size == 0; }

    /** Heap bytes the table holds (keys and values, by capacity). */
    std::size_t
    bytes() const
    {
        return _keys.capacity() * sizeof(std::uint32_t) +
               _values.capacity() * sizeof(std::uint64_t);
    }

    /** Visit every (key, count) pair. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::size_t i = 0; i < _keys.size(); ++i)
            if (_keys[i] != empty_key)
                fn(_keys[i], _values[i]);
    }

    /** Drop everything, keeping capacity. */
    void
    clear()
    {
        std::fill(_keys.begin(), _keys.end(), empty_key);
        std::fill(_values.begin(), _values.end(), 0);
        _size = 0;
    }

  private:
    std::size_t
    mask() const
    {
        return _keys.size() - 1;
    }

    std::size_t
    probe(std::uint32_t key) const
    {
        std::size_t slot =
            static_cast<std::size_t>(mix64(key)) & mask();
        while (_keys[slot] != empty_key && _keys[slot] != key)
            slot = (slot + 1) & mask();
        return slot;
    }

    std::size_t probeConst(std::uint32_t key) const { return probe(key); }

    void
    grow()
    {
        std::size_t new_cap = _keys.empty() ? 16 : _keys.size() * 2;
        std::vector<std::uint32_t> old_keys = std::move(_keys);
        std::vector<std::uint64_t> old_values = std::move(_values);
        _keys.assign(new_cap, empty_key);
        _values.assign(new_cap, 0);
        _size = 0;
        for (std::size_t i = 0; i < old_keys.size(); ++i) {
            if (old_keys[i] != empty_key) {
                std::size_t slot = probe(old_keys[i]);
                _keys[slot] = old_keys[i];
                _values[slot] = old_values[i];
                ++_size;
            }
        }
    }

    std::vector<std::uint32_t> _keys;
    std::vector<std::uint64_t> _values;
    std::size_t _size = 0;
};

/**
 * Dense counter row: u32 cells indexed by key, with a u64 spill area.
 *
 * Counts arrive in *passes*: beginPass() opens one, and within it
 * each cell may be incremented at most once (the interleave tracker's
 * suffix walk visits each slot once).  So no cell exceeds the passes
 * since the cells were last zeroed.  When that count reaches the
 * spill bound, beginPass() first adds every cell into the u64 area
 * and zeroes the cells: one compare per pass keeps the u32 cells from
 * wrapping.  The bound is a constructor argument only so tests can
 * drive the spill path without 2^32 passes.
 */
class DenseCounterRow
{
  public:
    /** Largest per-cell count the u32 cells may hold. */
    static constexpr std::uint32_t max_cell =
        std::numeric_limits<std::uint32_t>::max();

    DenseCounterRow() = default;

    explicit DenseCounterRow(std::uint32_t spill_at)
        : _spill_at(spill_at)
    {
    }

    /**
     * Take over @p sparse's counts, sizing the cells for @p keys.
     * Every key of @p sparse must be below @p keys.
     */
    void
    adopt(const FlatCounterMap &sparse, std::size_t keys)
    {
        resize(keys);
        sparse.forEach([&](std::uint32_t key, std::uint64_t count) {
            if (count > _spill_at) {
                if (_wide.empty())
                    _wide.assign(_cells.size(), 0);
                _wide[key] += count;
            } else {
                _cells[key] = static_cast<std::uint32_t>(count);
                _passes = std::max(
                    _passes, static_cast<std::uint32_t>(count));
            }
        });
    }

    /**
     * Open one pass over keys below @p keys and return the cells:
     * the caller adds at most 1 to any cell before the next pass.
     */
    std::uint32_t *
    beginPass(std::size_t keys)
    {
        if (_passes >= _spill_at)
            spill();
        ++_passes;
        if (_cells.size() < keys)
            resize(keys);
        return _cells.data();
    }

    /** True until the first adopt() or beginPass(). */
    bool empty() const { return _cells.empty(); }

    /** Heap bytes the row holds (cells and spill area, by capacity). */
    std::size_t
    bytes() const
    {
        return _cells.capacity() * sizeof(std::uint32_t) +
               _wide.capacity() * sizeof(std::uint64_t);
    }

    /** True when a pass over @p keys keys needs no reallocation. */
    bool fits(std::size_t keys) const { return keys <= _cells.capacity(); }

    /** Keys with a nonzero count. */
    std::size_t
    nonzero() const
    {
        std::size_t n = 0;
        forEach([&](std::uint32_t, std::uint64_t) { ++n; });
        return n;
    }

    /** Count of @p key, cells plus spilled. */
    std::uint64_t
    count(std::uint32_t key) const
    {
        if (key >= _cells.size())
            return 0;
        return _cells[key] + (_wide.empty() ? 0 : _wide[key]);
    }

    /** Visit every nonzero (key, count) pair in key order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::size_t key = 0; key < _cells.size(); ++key) {
            std::uint64_t total =
                _cells[key] + (_wide.empty() ? 0 : _wide[key]);
            if (total != 0)
                fn(static_cast<std::uint32_t>(key), total);
        }
    }

  private:
    void
    resize(std::size_t keys)
    {
        // Grow by at least a quarter so a row that follows a slowly
        // growing slot count is not copied once per new slot.
        if (keys > _cells.capacity())
            _cells.reserve(std::max(keys, _cells.size() +
                                              _cells.size() / 4));
        _cells.resize(keys, 0);
        if (!_wide.empty())
            _wide.resize(keys, 0);
    }

    void
    spill()
    {
        if (_wide.empty())
            _wide.assign(_cells.size(), 0);
        for (std::size_t key = 0; key < _cells.size(); ++key)
            _wide[key] += _cells[key];
        std::fill(_cells.begin(), _cells.end(), 0);
        _passes = 0;
    }

    std::vector<std::uint32_t> _cells;
    std::vector<std::uint64_t> _wide; ///< spilled counts; lazy
    std::uint32_t _spill_at = max_cell;
    std::uint32_t _passes = 0; ///< bound on any cell's count
};

} // namespace bwsa

#endif // BWSA_UTIL_FLAT_COUNTER_HH
