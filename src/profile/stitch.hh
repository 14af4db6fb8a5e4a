/**
 * @file
 * Boundary-stitch algebra of segmented interleave profiling, used by
 * the sharded engine (profile/shard.cc).  The streaming session needs
 * none of it: a session is sequential, so it keeps one warm tracker.
 *
 * A trace cut into contiguous segments and profiled with one cold
 * InterleaveTracker per segment misses exactly the pair increments
 * whose window anchor lies before a cut: the serial tracker would
 * have carried window state across the boundary.  Two pieces recover
 * them:
 *
 *   - composeBoundary() advances the serial window state across one
 *     segment using only that segment's summary (its graph for "who
 *     re-ran" and its final window), never rescanning the records;
 *   - StitchSink replays a segment seeded with the boundary window
 *     and emits, for each carried-over branch, the one suffix walk
 *     its first re-execution owes -- the exact increment set the cold
 *     tracker missed, and nothing else.
 *
 * Folding the per-segment graphs in segment order and applying every
 * boundary's stitch deltas reproduces the serial graph byte-for-byte
 * for any segmentation (proven by the test_shard exactness suite).
 */

#ifndef BWSA_PROFILE_STITCH_HH
#define BWSA_PROFILE_STITCH_HH

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "profile/conflict_graph.hh"
#include "trace/trace.hh"

namespace bwsa
{

/**
 * The boundary stitch sink: a tracking window seeded with the serial
 * window state at a segment boundary.  Entries carried over from
 * before the boundary are marked *old*; the first re-execution of an
 * old branch is exactly an increment the cold segment tracker missed
 * (its anchor lies before the boundary), so the suffix walk for that
 * record -- and only that record -- is emitted here.  Everything else
 * merely evolves the window.  Once no old entries remain (re-executed
 * or evicted) nothing further can be missing, so the sink reports
 * done() and the replay stops.
 *
 * Increments accumulate into a sink-local pc-pair delta map rather
 * than the merged graph, so every boundary's stitch can run
 * concurrently with the others -- and with the graph merge itself;
 * applyTo() folds the deltas in afterwards.
 */
class StitchSink : public TraceSink
{
  public:
    /**
     * @param seed       boundary window state, least recent first
     * @param max_window same bound the segment trackers used (0 =
     *                   none)
     */
    StitchSink(const std::vector<BranchPc> &seed,
               std::size_t max_window);

    void onBranch(const BranchRecord &record) override;

    /** Nothing missing once every old entry re-ran or was evicted. */
    bool done() const override { return _old_remaining == 0; }

    /**
     * Fold the buffered increments into the merged graph; fatal when
     * a stitched pc is absent (callers merge every segment whose
     * records the stitch replayed before applying).
     */
    void applyTo(ConflictGraph &graph) const;

    std::uint64_t recordsScanned() const { return _records; }

    std::uint64_t increments() const { return _increments; }

  private:
    static constexpr std::uint32_t npos = ~std::uint32_t(0);

    struct Slot
    {
        std::uint32_t prev = npos;
        std::uint32_t next = npos;
        BranchPc pc = 0;
        bool in_list = false;
        bool old_entry = false;
    };

    static std::uint64_t
    packPair(std::uint32_t a, std::uint32_t b)
    {
        if (a > b)
            std::swap(a, b);
        return (static_cast<std::uint64_t>(a) << 32) | b;
    }

    std::uint32_t slotFor(BranchPc pc);
    std::uint32_t oldSlotFor(BranchPc pc);
    void unlink(std::uint32_t id);
    void appendTail(std::uint32_t id);
    void evictHead();

    std::size_t _max_window;
    std::vector<Slot> _slots;
    std::unordered_map<BranchPc, std::uint32_t> _pc_to_slot;
    std::unordered_map<std::uint64_t, std::uint64_t> _deltas;
    std::uint32_t _head = npos;
    std::uint32_t _tail = npos;
    std::size_t _size = 0;
    std::size_t _old_remaining = 0;
    std::uint64_t _records = 0;
    std::uint64_t _increments = 0;
};

/**
 * Compose the boundary window state across one segment: branches that
 * re-ran inside the segment (i.e. appear in @p segment_graph) leave
 * their old position, the segment's own window (its most recently
 * executed distinct branches, least recent first) appends at the
 * recent end, and the bound keeps only the last @p max_window entries
 * -- exactly the serial tracker's window invariant.
 */
std::vector<BranchPc>
composeBoundary(const std::vector<BranchPc> &before,
                const ConflictGraph &segment_graph,
                const std::vector<BranchPc> &segment_window,
                std::size_t max_window);

} // namespace bwsa

#endif // BWSA_PROFILE_STITCH_HH
