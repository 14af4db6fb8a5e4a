/**
 * @file
 * Tests for the online phase-boundary detector (obs/phase_detect.hh):
 *
 *  - *window algebra*: PhaseAccumulator's timestamp-aligned windows
 *    carry the right distinct counts and Jaccard similarities, and a
 *    mergeAppend() fold over ANY segmentation of a trace -- including
 *    segments that split a window, and empty segments -- is
 *    bit-identical to the serial accumulator (the shard contract);
 *  - *detector semantics*: threshold, re-arm hysteresis and the
 *    minimum-phase-length guard, each isolated on a synthetic signal;
 *  - *prefix stability*: feeding the detector windows block by block
 *    (the streaming service's access pattern) yields exactly the
 *    serial timeline, so sharded == streamed == serial for a sweep of
 *    thresholds x segment counts;
 *  - edge cases: empty trace, zero-churn trace (one phase),
 *    churn-every-window (guard engages), single-sample trace.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "obs/phase_detect.hh"
#include "trace/branch_record.hh"
#include "util/random.hh"

using namespace bwsa;
using namespace bwsa::obs;

namespace
{

/**
 * A trace with genuine phase structure: @p phase_count regions of
 * @p windows_each windows, each region drawing from its own PC pool
 * with @p drift of the pool replaced every window (0.0 = perfectly
 * stable inside a phase).  One record per timestamp unit, so windows
 * are full and deterministic.
 */
std::vector<BranchRecord>
makePhasedTrace(std::uint64_t seed, std::size_t phase_count,
                std::size_t windows_each, std::uint64_t interval,
                std::uint32_t pool = 24, double drift = 0.0)
{
    Pcg32 rng(seed);
    std::vector<BranchRecord> records;
    records.reserve(phase_count * windows_each * interval);
    std::uint64_t ts = 0;
    for (std::size_t p = 0; p < phase_count; ++p) {
        std::uint64_t base = 0x10000ull * (p + 1);
        for (std::size_t w = 0; w < windows_each; ++w) {
            if (drift > 0.0 && w != 0)
                base += static_cast<std::uint64_t>(drift * pool) * 8;
            for (std::uint64_t i = 0; i < interval; ++i) {
                BranchRecord r;
                r.pc = base + 8ull * rng.nextBounded(pool);
                r.timestamp = ts++;
                r.taken = rng.nextBool(0.5);
                records.push_back(r);
            }
        }
    }
    return records;
}

/** Serial accumulator over @p records, finished. */
PhaseAccumulator
serialAccumulate(const std::vector<BranchRecord> &records,
                 std::uint64_t interval)
{
    PhaseAccumulator accumulator(interval);
    for (const BranchRecord &r : records)
        accumulator.sample(r.pc, r.timestamp);
    accumulator.finish();
    return accumulator;
}

/**
 * Fold @p records through @p cuts: each segment gets a cold
 * accumulator, folded left-to-right with mergeAppend() -- the exact
 * shape of the sharded profiler's reduction.
 */
PhaseAccumulator
foldedAccumulate(const std::vector<BranchRecord> &records,
                 std::uint64_t interval,
                 const std::vector<std::size_t> &cuts)
{
    PhaseAccumulator folded(interval);
    std::size_t begin = 0;
    std::vector<std::size_t> ends(cuts);
    ends.push_back(records.size());
    for (std::size_t end : ends) {
        PhaseAccumulator segment(interval);
        for (std::size_t i = begin; i < end; ++i)
            segment.sample(records[i].pc, records[i].timestamp);
        folded.mergeAppend(segment);
        begin = end;
    }
    folded.finish();
    return folded;
}

/** Evenly spaced cut points splitting @p n records into @p k parts. */
std::vector<std::size_t>
evenCuts(std::size_t n, std::size_t k)
{
    std::vector<std::size_t> cuts;
    for (std::size_t i = 1; i < k; ++i)
        cuts.push_back(i * n / k);
    return cuts;
}

/** Hand-built window stat for detector-only tests. */
PhaseWindowStat
window(std::uint64_t start, double similarity, bool has_similarity)
{
    PhaseWindowStat stat;
    stat.start = start;
    stat.distinct = 10;
    stat.samples = 100;
    stat.similarity = similarity;
    stat.has_similarity = has_similarity;
    return stat;
}

/**
 * Drive a PhaseDetector the way the streaming service does: after
 * each block of records lands in the accumulator, drain the windows
 * that closed since the last block (observeNew()).
 */
PhaseTimeline
streamedTimeline(const std::vector<BranchRecord> &records,
                 std::uint64_t interval,
                 const PhaseDetectorConfig &config,
                 std::size_t block)
{
    PhaseAccumulator accumulator(interval);
    PhaseDetector detector(interval, config);
    for (std::size_t off = 0; off < records.size(); off += block) {
        std::size_t n = std::min(block, records.size() - off);
        for (std::size_t i = off; i < off + n; ++i)
            accumulator.sample(records[i].pc,
                               records[i].timestamp);
        detector.observeNew(accumulator);
    }
    accumulator.finish();
    detector.observeNew(accumulator);
    return detector.timeline();
}

} // namespace

// ---------------------------------------------------------------
// PhaseAccumulator: window contents

TEST(PhaseAccumulator, WindowsAreTimestampAligned)
{
    PhaseAccumulator accumulator(100);
    // Window [0,100): {A, B}, 3 samples.
    accumulator.sample(0xA, 0);
    accumulator.sample(0xB, 10);
    accumulator.sample(0xA, 20);
    // Window [100,200): {B, C}.
    accumulator.sample(0xB, 100);
    accumulator.sample(0xC, 101);
    // Window [200,300): {B} -- 250 aligns down to 200.
    accumulator.sample(0xB, 250);
    // Window [300,400): {D}, a partial tail window that only finish()
    // closes; until then only the three closed windows are visible.
    accumulator.sample(0xD, 300);
    EXPECT_EQ(accumulator.windows().size(), 3u);
    accumulator.finish();

    const std::vector<PhaseWindowStat> &windows =
        accumulator.windows();
    ASSERT_EQ(windows.size(), 4u);
    EXPECT_EQ(accumulator.totalSamples(), 7u);

    EXPECT_EQ(windows[0].start, 0u);
    EXPECT_EQ(windows[0].distinct, 2u);
    EXPECT_EQ(windows[0].samples, 3u);
    EXPECT_FALSE(windows[0].has_similarity);

    EXPECT_EQ(windows[1].start, 100u);
    EXPECT_EQ(windows[1].distinct, 2u);
    EXPECT_TRUE(windows[1].has_similarity);
    // {B,C} vs {A,B}: |{B}| / |{A,B,C}|.
    EXPECT_DOUBLE_EQ(windows[1].similarity, 1.0 / 3.0);

    EXPECT_EQ(windows[2].start, 200u);
    EXPECT_EQ(windows[2].distinct, 1u);
    // {B} vs {B,C}: 1/2.
    EXPECT_DOUBLE_EQ(windows[2].similarity, 0.5);

    EXPECT_EQ(windows[3].start, 300u);
    EXPECT_EQ(windows[3].distinct, 1u);
    // {D} vs {B}: full turnover.
    EXPECT_TRUE(windows[3].has_similarity);
    EXPECT_DOUBLE_EQ(windows[3].similarity, 0.0);
}

TEST(PhaseAccumulator, JaccardCountsSharedPopulation)
{
    const std::unordered_set<std::uint64_t> ab{0xA, 0xB};
    const std::unordered_set<std::uint64_t> bcd{0xB, 0xC, 0xD};
    // |{B}| / |{A,B,C,D}|, whichever side is larger.
    EXPECT_DOUBLE_EQ(jaccard(ab, bcd), 0.25);
    EXPECT_DOUBLE_EQ(jaccard(bcd, ab), 0.25);
    EXPECT_DOUBLE_EQ(jaccard(ab, ab), 1.0);
    EXPECT_DOUBLE_EQ(jaccard(ab, {0xE}), 0.0);
    // Two empty populations are identical.
    EXPECT_DOUBLE_EQ(jaccard({}, {}), 1.0);
}

TEST(PhaseAccumulator, GapsBetweenWindowsEmitNothing)
{
    PhaseAccumulator accumulator(10);
    accumulator.sample(0xA, 5);
    accumulator.sample(0xA, 95); // skips windows [10,90)
    accumulator.finish();

    ASSERT_EQ(accumulator.windows().size(), 2u);
    EXPECT_EQ(accumulator.windows()[0].start, 0u);
    EXPECT_EQ(accumulator.windows()[1].start, 90u);
    // Similarity still compares against the last *closed* window.
    EXPECT_TRUE(accumulator.windows()[1].has_similarity);
    EXPECT_DOUBLE_EQ(accumulator.windows()[1].similarity, 1.0);
}

TEST(PhaseAccumulator, EmptyTraceFinishesToNoWindows)
{
    PhaseAccumulator accumulator(100);
    accumulator.finish();
    accumulator.finish(); // idempotent
    EXPECT_TRUE(accumulator.finished());
    EXPECT_TRUE(accumulator.windows().empty());
    EXPECT_EQ(accumulator.totalSamples(), 0u);

    PhaseTimeline timeline = detectPhases(accumulator);
    EXPECT_TRUE(timeline.phases.empty());
    EXPECT_EQ(timeline.interval, 100u);
}

TEST(PhaseAccumulator, SingleSampleTraceIsOneWindow)
{
    PhaseAccumulator accumulator(100);
    accumulator.sample(0xA, 42);
    accumulator.finish();
    accumulator.finish(); // idempotent: no second window
    ASSERT_EQ(accumulator.windows().size(), 1u);
    EXPECT_EQ(accumulator.windows()[0].start, 0u);
    EXPECT_EQ(accumulator.windows()[0].distinct, 1u);
    EXPECT_FALSE(accumulator.windows()[0].has_similarity);

    PhaseTimeline timeline = detectPhases(accumulator);
    ASSERT_EQ(timeline.phases.size(), 1u);
    EXPECT_EQ(timeline.phases[0].window_count, 1u);
    EXPECT_EQ(timeline.phases[0].end_ts, 100u);
}

// ---------------------------------------------------------------
// PhaseAccumulator: merge algebra

TEST(PhaseAccumulator, MergeAppendMatchesSerialAcrossSegmentCounts)
{
    std::vector<BranchRecord> records =
        makePhasedTrace(7, 4, 6, 64, 24, 0.25);
    for (std::uint64_t interval : {std::uint64_t(1),
                                   std::uint64_t(64),
                                   std::uint64_t(257)}) {
        PhaseAccumulator serial =
            serialAccumulate(records, interval);
        for (std::size_t k : {std::size_t(1), std::size_t(2),
                              std::size_t(3), std::size_t(5),
                              std::size_t(8), std::size_t(13)}) {
            PhaseAccumulator folded = foldedAccumulate(
                records, interval, evenCuts(records.size(), k));
            EXPECT_TRUE(folded == serial)
                << "interval " << interval << ", " << k
                << " segments";
            EXPECT_EQ(folded.totalSamples(), serial.totalSamples());
        }
    }
}

TEST(PhaseAccumulator, MergeAppendRepairsStraddledWindows)
{
    // Cuts chosen to land *inside* windows (interval 100, one record
    // per timestamp): every alignment of the straddle union and the
    // first/second-window similarity repair gets exercised.
    std::vector<BranchRecord> records =
        makePhasedTrace(11, 3, 4, 100, 16, 0.0);
    PhaseAccumulator serial = serialAccumulate(records, 100);
    for (std::size_t cut : {std::size_t(1), std::size_t(50),
                            std::size_t(99), std::size_t(101),
                            std::size_t(150), std::size_t(250)}) {
        PhaseAccumulator folded =
            foldedAccumulate(records, 100, {cut});
        EXPECT_TRUE(folded == serial) << "cut at " << cut;
    }
    // Three-way splits with both cuts mid-window: the middle
    // segment both receives and donates a partial window.
    for (std::size_t first : {std::size_t(30), std::size_t(130)}) {
        PhaseAccumulator folded =
            foldedAccumulate(records, 100, {first, first + 115});
        EXPECT_TRUE(folded == serial)
            << "cuts at " << first << "," << first + 115;
    }
}

TEST(PhaseAccumulator, MergeAppendToleratesEmptySegments)
{
    std::vector<BranchRecord> records =
        makePhasedTrace(13, 2, 3, 50, 12, 0.0);
    PhaseAccumulator serial = serialAccumulate(records, 50);
    // Duplicate cut points produce zero-length segments; a leading
    // cut at 0 produces an empty first segment.
    PhaseAccumulator folded = foldedAccumulate(
        records, 50,
        {0, records.size() / 2, records.size() / 2,
         records.size()});
    EXPECT_TRUE(folded == serial);

    // Folding into a cold accumulator adopts the segment wholesale.
    PhaseAccumulator cold(50);
    PhaseAccumulator whole(50);
    for (const BranchRecord &r : records)
        whole.sample(r.pc, r.timestamp);
    cold.mergeAppend(whole);
    cold.finish();
    EXPECT_TRUE(cold == serial);
}

// ---------------------------------------------------------------
// PhaseDetector: semantics on synthetic window signals

TEST(PhaseDetector, ZeroChurnTraceIsOnePhase)
{
    PhaseDetectorConfig config;
    config.threshold = 0.4;
    config.min_windows = 4;
    PhaseDetector detector(100, config);
    EXPECT_FALSE(detector.observe(window(0, 1.0, false)));
    for (int i = 1; i < 40; ++i)
        EXPECT_FALSE(detector.observe(
            window(100ull * i, 1.0, true)));

    PhaseTimeline timeline = detector.timeline();
    ASSERT_EQ(timeline.phases.size(), 1u);
    EXPECT_EQ(timeline.phases[0].first_window, 0u);
    EXPECT_EQ(timeline.phases[0].window_count, 40u);
    EXPECT_EQ(timeline.phases[0].start_ts, 0u);
    EXPECT_EQ(timeline.phases[0].end_ts, 4000u);
    EXPECT_DOUBLE_EQ(timeline.phases[0].boundary_similarity, 1.0);
}

TEST(PhaseDetector, SustainedChurnReadsAsOneTransition)
{
    // Every window from #4 on is full turnover.  The first eligible
    // window opens a phase; hysteresis then keeps the detector
    // disarmed because similarity never recovers, so the storm is
    // one boundary, not one per window.
    PhaseDetectorConfig config;
    config.threshold = 0.4;
    config.hysteresis = 0.2;
    config.min_windows = 4;
    PhaseDetector detector(10, config);
    detector.observe(window(0, 1.0, false));
    for (int i = 1; i < 4; ++i)
        detector.observe(window(10ull * i, 1.0, true));
    int boundaries = 0;
    for (int i = 4; i < 24; ++i)
        boundaries += detector.observe(window(10ull * i, 0.0, true))
                          ? 1
                          : 0;
    EXPECT_EQ(boundaries, 1);
    EXPECT_EQ(detector.phaseCount(), 2u);
}

TEST(PhaseDetector, MinWindowsGuardBoundsPhaseRate)
{
    // Alternating calm (re-arms) and churn (fires when allowed)
    // windows: with min_windows=1 every churn window is a boundary;
    // with min_windows=4 only every other churn window is, because
    // the young phase is protected.
    auto run = [](std::uint64_t min_windows) {
        PhaseDetectorConfig config;
        config.threshold = 0.4;
        config.hysteresis = 0.2;
        config.min_windows = min_windows;
        PhaseDetector detector(10, config);
        detector.observe(window(0, 1.0, false));
        for (int i = 1; i <= 32; ++i)
            detector.observe(window(
                10ull * i, (i % 2 == 0) ? 0.0 : 0.9, true));
        return detector.timeline();
    };

    PhaseTimeline eager = run(1);
    PhaseTimeline guarded = run(4);
    EXPECT_EQ(eager.phases.size(), 17u);   // every even window fires
    EXPECT_EQ(guarded.phases.size(), 9u);  // every 4th window fires
    // Every phase the guard closed is at least min_windows long.
    for (std::size_t i = 0; i + 1 < guarded.phases.size(); ++i)
        EXPECT_GE(guarded.phases[i].window_count, 4u) << "phase " << i;
}

TEST(PhaseDetector, HysteresisGatesRearm)
{
    // After a boundary, similarity hovering between threshold and
    // threshold+hysteresis must NOT re-arm the detector; crossing
    // threshold+hysteresis must.
    PhaseDetectorConfig config;
    config.threshold = 0.4;
    config.hysteresis = 0.2;
    config.min_windows = 1;
    PhaseDetector detector(10, config);
    detector.observe(window(0, 1.0, false));
    EXPECT_TRUE(detector.observe(window(10, 0.1, true)));  // fires
    EXPECT_FALSE(detector.observe(window(20, 0.5, true))); // limbo
    EXPECT_FALSE(detector.observe(window(30, 0.1, true))); // disarmed
    EXPECT_FALSE(detector.observe(window(40, 0.7, true))); // re-arms
    EXPECT_TRUE(detector.observe(window(50, 0.1, true)));  // fires
    EXPECT_EQ(detector.phaseCount(), 3u);
}

TEST(PhaseDetector, ObserveNewDrainsOnlyUnseenWindows)
{
    PhaseDetectorConfig config;
    config.min_windows = 1;
    PhaseAccumulator accumulator(10);
    PhaseDetector detector(10, config);
    accumulator.sample(0xA, 0);
    accumulator.sample(0xA, 10);
    accumulator.sample(0xB, 20); // closes [0,10) and [10,20): {A}
    EXPECT_EQ(detector.observeNew(accumulator), 0u);
    EXPECT_EQ(detector.windowsObserved(), 2u);
    accumulator.sample(0xB, 30); // closes [20,30): {B}, full turnover
    EXPECT_EQ(detector.observeNew(accumulator), 1u);
    EXPECT_EQ(detector.observeNew(accumulator), 0u);
    accumulator.finish();
    EXPECT_EQ(detector.observeNew(accumulator), 0u);
    EXPECT_EQ(detector.windowsObserved(), 4u);
    EXPECT_EQ(detector.timeline(), detectPhases(accumulator, config));
}

TEST(PhaseDetectorDeath, ObserveNewRejectsOtherInterval)
{
    PhaseAccumulator accumulator(10);
    PhaseDetector detector(20);
    EXPECT_DEATH(detector.observeNew(accumulator), "interval mismatch");
}

TEST(PhaseDetector, TimelineInvariantsHold)
{
    std::vector<BranchRecord> records =
        makePhasedTrace(17, 5, 7, 64, 24, 0.3);
    PhaseAccumulator accumulator = serialAccumulate(records, 64);
    PhaseDetectorConfig config;
    config.threshold = 0.5;
    config.min_windows = 3;
    PhaseTimeline timeline = detectPhases(accumulator, config);

    ASSERT_FALSE(timeline.phases.empty());
    const std::vector<PhaseWindowStat> &windows =
        accumulator.windows();
    std::uint64_t next_window = 0;
    for (std::size_t i = 0; i < timeline.phases.size(); ++i) {
        const Phase &phase = timeline.phases[i];
        // Phases tile the window sequence with no gaps or overlap.
        EXPECT_EQ(phase.first_window, next_window);
        EXPECT_GE(phase.window_count, 1u);
        next_window += phase.window_count;
        // Timestamp bounds come straight from the member windows.
        EXPECT_EQ(phase.start_ts, windows[phase.first_window].start);
        EXPECT_EQ(phase.end_ts,
                  windows[phase.first_window + phase.window_count - 1]
                          .start +
                      64);
        // Interior phases respect the minimum length guard.
        if (i + 1 < timeline.phases.size()) {
            EXPECT_GE(phase.window_count, config.min_windows);
        }
        // Boundary similarity is below threshold for every phase
        // after the first.
        if (i != 0) {
            EXPECT_LT(phase.boundary_similarity, config.threshold);
        }
    }
    EXPECT_EQ(next_window, windows.size());
}

// ---------------------------------------------------------------
// Sharded == streamed == serial

TEST(PhaseTimelines, ShardedAndStreamedMatchSerialAcrossSweep)
{
    std::vector<BranchRecord> records =
        makePhasedTrace(23, 4, 8, 64, 24, 0.2);
    const std::uint64_t interval = 64;
    PhaseAccumulator serial = serialAccumulate(records, interval);

    for (double threshold : {0.15, 0.4, 0.7}) {
        for (std::uint64_t min_windows :
             {std::uint64_t(1), std::uint64_t(4)}) {
            PhaseDetectorConfig config;
            config.threshold = threshold;
            config.hysteresis = 0.2;
            config.min_windows = min_windows;
            PhaseTimeline expected = detectPhases(serial, config);

            for (std::size_t k : {std::size_t(1), std::size_t(2),
                                  std::size_t(3), std::size_t(5),
                                  std::size_t(8)}) {
                // Sharded: fold k cold accumulators, then detect.
                PhaseAccumulator folded = foldedAccumulate(
                    records, interval,
                    evenCuts(records.size(), k));
                EXPECT_EQ(detectPhases(folded, config), expected)
                    << "sharded, threshold " << threshold
                    << ", min_windows " << min_windows << ", " << k
                    << " shards";

                // Streamed: observe windows as blocks land.
                std::size_t block =
                    (records.size() + k - 1) / k;
                EXPECT_EQ(streamedTimeline(records, interval,
                                           config, block),
                          expected)
                    << "streamed, threshold " << threshold
                    << ", min_windows " << min_windows
                    << ", block " << block;
            }
            // Degenerate partitions: record-at-a-time streaming and
            // a deliberately window-misaligned block size.
            EXPECT_EQ(
                streamedTimeline(records, interval, config, 1),
                expected);
            EXPECT_EQ(
                streamedTimeline(records, interval, config, 97),
                expected);
        }
    }
}

TEST(PhaseTimelines, StreamedPrefixesAreStable)
{
    // A closed phase never changes as more windows arrive: compare
    // the detector's timeline after every block against the final
    // one -- all but the last (open) phase must already be final.
    std::vector<BranchRecord> records =
        makePhasedTrace(29, 3, 6, 50, 16, 0.0);
    PhaseAccumulator accumulator(50);
    PhaseDetector detector(50);
    PhaseTimeline final_timeline =
        detectPhases(serialAccumulate(records, 50));

    std::size_t fed = 0;
    for (std::size_t off = 0; off < records.size(); off += 200) {
        std::size_t n = std::min(std::size_t(200),
                                 records.size() - off);
        for (std::size_t i = off; i < off + n; ++i)
            accumulator.sample(records[i].pc,
                               records[i].timestamp);
        while (fed < accumulator.windows().size())
            detector.observe(accumulator.windows()[fed++]);

        PhaseTimeline partial = detector.timeline();
        ASSERT_LE(partial.phases.size(),
                  final_timeline.phases.size());
        for (std::size_t p = 0; p + 1 < partial.phases.size(); ++p)
            EXPECT_EQ(partial.phases[p], final_timeline.phases[p])
                << "closed phase " << p << " changed after "
                << off + n << " records";
    }
    accumulator.finish();
    while (fed < accumulator.windows().size())
        detector.observe(accumulator.windows()[fed++]);
    EXPECT_EQ(detector.timeline(), final_timeline);
}
