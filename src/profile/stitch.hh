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
 * them, both from per-segment summaries and without rescanning any
 * record:
 *
 *   - composeBoundary() advances the serial window state across one
 *     segment using only that segment's tracker (its slots for "who
 *     ran" and its final window);
 *   - stitchBoundary() derives, from the composed window and the next
 *     segment's first-occurrence order, the one suffix walk that each
 *     carried-over branch's first re-execution owes, and adds those
 *     increments into that segment's counter rows before its flush.
 *
 * The derivation: let W be the composed window (least recent first,
 * size w) and S the segment's first-occurrence order (its tracker's
 * slot order).  For an old branch X = W[p] whose first in-segment
 * index is f (its slot), the branches that ran after X's last
 * execution and before its re-run are
 *
 *     A(X) = S[0..f)  ∪  { W[j] : j > p },
 *
 * a branch in both sets counting once.  The serial tracker still
 * holds X in its window then iff |A(X)| < max_window (0 = unbounded),
 * and if so its suffix walk increments (X, Y) once for each Y in
 * A(X); otherwise X was evicted and re-ran fresh, as it did in the
 * cold segment tracker.  Since |A(X)| >= f, a bounded window only
 * needs the first max_window slots.
 *
 * Folding the per-segment graphs in segment order with these
 * increments reproduces the serial graph byte-for-byte for any
 * segmentation (proven by the test_shard exactness suite, which also
 * checks the derived increments against a replaying oracle).
 */

#ifndef BWSA_PROFILE_STITCH_HH
#define BWSA_PROFILE_STITCH_HH

#include <cstdint>
#include <vector>

#include "profile/interleave.hh"

namespace bwsa
{

/**
 * Compose the boundary window state across one segment: branches that
 * ran inside the segment (slots of @p segment) leave their old
 * position, the segment's own window (its most recently executed
 * distinct branches, least recent first) appends at the recent end,
 * and the tracker's bound keeps only the last max_window entries --
 * exactly the serial tracker's window invariant.  Call it before
 * stitchBoundary() adds slots to @p segment.
 */
std::vector<BranchPc>
composeBoundary(const std::vector<BranchPc> &before,
                const InterleaveTracker &segment);

/**
 * Add the increments the serial tracker performs at the first
 * in-segment re-execution of each branch of @p boundary (the serial
 * window state at the segment's start, least recent first) into
 * @p segment's counter rows, after the segment's last record and
 * before its flush.  Boundary branches that never ran in the segment
 * but are owed an interleaving get zero-count slots, so the flush
 * emits them as nodes the shard merge maps to their existing ids.
 *
 * @return the number of pair increments added
 */
std::uint64_t stitchBoundary(const std::vector<BranchPc> &boundary,
                             InterleaveTracker &segment);

} // namespace bwsa

#endif // BWSA_PROFILE_STITCH_HH
