/**
 * @file
 * Unit and property tests for the util substrate: RNG and
 * distributions, saturating counters, history registers, bit helpers,
 * statistics accumulators, string helpers, the flat counter map, and
 * command-line parsing.
 */

#include <algorithm>
#include <cstring>
#include <map>
#include <unordered_map>

#include <gtest/gtest.h>

#include "util/bitfield.hh"
#include "util/cli.hh"
#include "util/flat_counter.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "util/sat_counter.hh"
#include "util/slot_table.hh"
#include "util/stats.hh"
#include "util/strutil.hh"

using namespace bwsa;

// ---------------------------------------------------------------- Pcg32

TEST(Pcg32, SameSeedSameStream)
{
    Pcg32 a(123), b(123);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Pcg32, DifferentSeedsDiverge)
{
    Pcg32 a(1), b(2);
    int differing = 0;
    for (int i = 0; i < 100; ++i)
        if (a.next() != b.next())
            ++differing;
    EXPECT_GT(differing, 90);
}

TEST(Pcg32, BoundedStaysInRange)
{
    Pcg32 rng(7);
    for (std::uint32_t bound : {1u, 2u, 3u, 10u, 1000u, 1u << 30}) {
        for (int i = 0; i < 200; ++i)
            ASSERT_LT(rng.nextBounded(bound), bound);
    }
}

TEST(Pcg32, RangeInclusive)
{
    Pcg32 rng(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        std::uint32_t v = rng.nextRange(5, 8);
        ASSERT_GE(v, 5u);
        ASSERT_LE(v, 8u);
        saw_lo |= (v == 5);
        saw_hi |= (v == 8);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Pcg32, DoubleInUnitInterval)
{
    Pcg32 rng(11);
    for (int i = 0; i < 1000; ++i) {
        double d = rng.nextDouble();
        ASSERT_GE(d, 0.0);
        ASSERT_LT(d, 1.0);
    }
}

TEST(Pcg32, BoolRespectsProbability)
{
    Pcg32 rng(13);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hits += rng.nextBool(0.3);
    EXPECT_NEAR(hits / double(n), 0.3, 0.02);
}

TEST(Pcg32, UniformityChiSquare)
{
    // 16 buckets over 64k draws: chi-square should stay far below
    // the catastrophic range if the generator is healthy.
    Pcg32 rng(17);
    std::vector<int> buckets(16, 0);
    const int n = 65536;
    for (int i = 0; i < n; ++i)
        ++buckets[rng.next() >> 28];
    double expected = n / 16.0;
    double chi2 = 0.0;
    for (int b : buckets)
        chi2 += (b - expected) * (b - expected) / expected;
    EXPECT_LT(chi2, 50.0); // df=15, p<<0.001 threshold is ~37.7
}

TEST(SplitMix, DeriveSeedIsStable)
{
    EXPECT_EQ(deriveSeed(42, 0), deriveSeed(42, 0));
    EXPECT_NE(deriveSeed(42, 0), deriveSeed(42, 1));
    EXPECT_NE(deriveSeed(42, 0), deriveSeed(43, 0));
}

// ---------------------------------------------------------- distributions

TEST(ZipfSampler, SkewFavorsLowRanks)
{
    Pcg32 rng(19);
    ZipfSampler zipf(100, 0.9);
    std::vector<int> counts(100, 0);
    for (int i = 0; i < 50000; ++i)
        ++counts[zipf.sample(rng)];
    EXPECT_GT(counts[0], counts[10]);
    EXPECT_GT(counts[0], counts[50]);
    EXPECT_GT(counts[0], 10 * counts[99] + 1);
}

TEST(ZipfSampler, ThetaZeroIsUniform)
{
    Pcg32 rng(23);
    ZipfSampler zipf(10, 0.0);
    std::vector<int> counts(10, 0);
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        ++counts[zipf.sample(rng)];
    for (int c : counts)
        EXPECT_NEAR(c, n / 10, n / 50);
}

TEST(DiscreteSampler, MatchesWeights)
{
    Pcg32 rng(29);
    DiscreteSampler sampler({1.0, 2.0, 1.0});
    std::vector<int> counts(3, 0);
    const int n = 40000;
    for (int i = 0; i < n; ++i)
        ++counts[sampler.sample(rng)];
    EXPECT_NEAR(counts[0] / double(n), 0.25, 0.02);
    EXPECT_NEAR(counts[1] / double(n), 0.50, 0.02);
    EXPECT_NEAR(counts[2] / double(n), 0.25, 0.02);
}

TEST(DiscreteSampler, ZeroWeightNeverChosen)
{
    Pcg32 rng(31);
    DiscreteSampler sampler({1.0, 0.0, 1.0});
    for (int i = 0; i < 5000; ++i)
        ASSERT_NE(sampler.sample(rng), 1u);
}

TEST(TripCountSampler, RespectsBounds)
{
    Pcg32 rng(37);
    TripCountSampler trips(10.0, 50);
    for (int i = 0; i < 5000; ++i) {
        std::uint32_t t = trips.sample(rng);
        ASSERT_GE(t, 1u);
        ASSERT_LE(t, 50u);
    }
}

TEST(TripCountSampler, MeanIsApproximatelyRight)
{
    Pcg32 rng(41);
    TripCountSampler trips(8.0, 1000);
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += trips.sample(rng);
    EXPECT_NEAR(sum / n, 8.0, 0.5);
}

TEST(TripCountSampler, MeanOneIsAlwaysOne)
{
    Pcg32 rng(43);
    TripCountSampler trips(1.0, 100);
    for (int i = 0; i < 100; ++i)
        ASSERT_EQ(trips.sample(rng), 1u);
}

// ------------------------------------------------------------ SatCounter

class SatCounterWidth : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(SatCounterWidth, SaturatesAtBothEnds)
{
    unsigned bits = GetParam();
    SatCounter c(bits, 0);
    std::uint8_t max = static_cast<std::uint8_t>((1u << bits) - 1);
    for (int i = 0; i < 300; ++i)
        c.increment();
    EXPECT_EQ(c.value(), max);
    EXPECT_TRUE(c.isSaturated());
    for (int i = 0; i < 300; ++i)
        c.decrement();
    EXPECT_EQ(c.value(), 0);
    EXPECT_TRUE(c.isSaturated());
}

TEST_P(SatCounterWidth, PredictBoundaryIsMidpoint)
{
    unsigned bits = GetParam();
    std::uint8_t max = static_cast<std::uint8_t>((1u << bits) - 1);
    for (unsigned v = 0; v <= max; ++v) {
        SatCounter c(bits, static_cast<std::uint8_t>(v));
        EXPECT_EQ(c.predictTaken(), v > (max >> 1));
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, SatCounterWidth,
                         ::testing::Values(1u, 2u, 3u, 4u, 8u));

TEST(SatCounter, TwoBitHysteresis)
{
    // The classic 2-bit automaton tolerates one anomaly before
    // flipping its prediction.
    SatCounter c(2, 3); // strongly taken
    c.update(false);
    EXPECT_TRUE(c.predictTaken()); // still predicts taken
    c.update(false);
    EXPECT_FALSE(c.predictTaken());
}

TEST(SatCounter, SetRejectsOutOfRange)
{
    SatCounter c(2);
    EXPECT_DEATH(c.set(4), "out of range");
}

// ------------------------------------------------------- HistoryRegister

TEST(HistoryRegister, ShiftsInLowBit)
{
    HistoryRegister h(4);
    h.push(true);
    h.push(false);
    h.push(true);
    EXPECT_EQ(h.value(), 0b101u);
    h.push(true);
    EXPECT_EQ(h.value(), 0b1011u);
    h.push(false); // oldest bit falls off
    EXPECT_EQ(h.value(), 0b0110u);
}

TEST(HistoryRegister, MasksToWidth)
{
    HistoryRegister h(3);
    for (int i = 0; i < 100; ++i)
        h.push(true);
    EXPECT_EQ(h.value(), 0b111u);
    EXPECT_EQ(h.patternCount(), 8u);
}

TEST(HistoryRegister, ClearResets)
{
    HistoryRegister h(8);
    h.push(true);
    h.push(true);
    h.clear();
    EXPECT_EQ(h.value(), 0u);
}

// -------------------------------------------------------------- bitfield

TEST(Bitfield, PowerOfTwoPredicates)
{
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(2));
    EXPECT_FALSE(isPowerOfTwo(3));
    EXPECT_TRUE(isPowerOfTwo(1ull << 40));
}

TEST(Bitfield, Logs)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(1024), 10u);
    EXPECT_EQ(ceilLog2(1024), 10u);
    EXPECT_EQ(ceilLog2(1025), 11u);
    EXPECT_EQ(nextPowerOfTwo(1000), 1024u);
    EXPECT_EQ(nextPowerOfTwo(1024), 1024u);
}

TEST(Bitfield, MasksAndExtraction)
{
    EXPECT_EQ(lowMask(0), 0u);
    EXPECT_EQ(lowMask(4), 0xfu);
    EXPECT_EQ(lowMask(64), ~std::uint64_t(0));
    EXPECT_EQ(bits(0xabcd, 15, 8), 0xabu);
    EXPECT_EQ(bits(0xabcd, 7, 0), 0xcdu);
}

TEST(Bitfield, Mix64Distributes)
{
    // Sequential inputs should produce outputs differing in many bits.
    int total_flips = 0;
    for (std::uint64_t i = 0; i < 64; ++i)
        total_flips += __builtin_popcountll(mix64(i) ^ mix64(i + 1));
    EXPECT_GT(total_flips / 64, 20);
}

// ----------------------------------------------------------------- stats

TEST(RunningStat, MeanVarianceMinMax)
{
    RunningStat s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(v);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.variance(), 4.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStat, MergeMatchesSequential)
{
    Pcg32 rng(47);
    RunningStat whole, left, right;
    for (int i = 0; i < 1000; ++i) {
        double v = rng.nextDouble() * 100.0;
        whole.add(v);
        (i < 500 ? left : right).add(v);
    }
    left.merge(right);
    EXPECT_EQ(left.count(), whole.count());
    EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
    EXPECT_NEAR(left.variance(), whole.variance(), 1e-6);
}

TEST(RunningStat, SumIsExact)
{
    // sum() tracks an exact running total rather than reconstructing
    // mean * count, which drifts once the incremental mean has been
    // rounded (regression: 0.1 added 10 times reported 0.9999...).
    RunningStat s;
    EXPECT_DOUBLE_EQ(s.sum(), 0.0);
    double exact = 0.0;
    for (int i = 1; i <= 1000; ++i) {
        double v = 1.0 / i;
        s.add(v);
        exact += v;
    }
    EXPECT_DOUBLE_EQ(s.sum(), exact);
}

TEST(RunningStat, SumSurvivesMergeAndWeightedChains)
{
    // Merging in any grouping must reproduce the sequential sum
    // bit-for-bit within the associativity of the merge order used.
    Pcg32 rng(91);
    std::vector<double> samples;
    for (int i = 0; i < 300; ++i)
        samples.push_back(rng.nextDouble() * 10.0 - 5.0);

    RunningStat whole;
    for (double v : samples)
        whole.add(v);

    RunningStat a, b, c;
    for (std::size_t i = 0; i < samples.size(); ++i)
        (i % 3 == 0 ? a : i % 3 == 1 ? b : c).add(samples[i]);
    RunningStat left = a;
    left.merge(b);
    left.merge(c);
    EXPECT_NEAR(left.sum(), whole.sum(), 1e-9);

    RunningStat w;
    w.addWeighted(0.1, 10);
    EXPECT_NEAR(w.sum(), 1.0, 1e-12);
    RunningStat merged = w;
    merged.merge(w);
    EXPECT_NEAR(merged.sum(), 2.0, 1e-12);
    EXPECT_EQ(merged.count(), 20u);
}

TEST(RunningStat, WeightedEqualsRepeated)
{
    RunningStat a, b;
    a.addWeighted(3.0, 5);
    a.addWeighted(7.0, 2);
    for (int i = 0; i < 5; ++i)
        b.add(3.0);
    for (int i = 0; i < 2; ++i)
        b.add(7.0);
    EXPECT_EQ(a.count(), b.count());
    EXPECT_NEAR(a.mean(), b.mean(), 1e-12);
    EXPECT_NEAR(a.variance(), b.variance(), 1e-9);
}

TEST(Histogram, PercentilesExact)
{
    Histogram h;
    for (int i = 1; i <= 100; ++i)
        h.add(i);
    EXPECT_EQ(h.percentile(0.5), 50);
    EXPECT_EQ(h.percentile(0.9), 90);
    EXPECT_EQ(h.percentile(1.0), 100);
    EXPECT_EQ(h.percentile(0.01), 1);
    EXPECT_DOUBLE_EQ(h.mean(), 50.5);
}

TEST(Histogram, WeightedAdd)
{
    Histogram h;
    h.add(1, 99);
    h.add(100, 1);
    EXPECT_EQ(h.total(), 100u);
    EXPECT_EQ(h.distinct(), 2u);
    EXPECT_EQ(h.percentile(0.5), 1);
    EXPECT_EQ(h.percentile(1.0), 100);
}

TEST(RatioStat, CountsAndMerges)
{
    RatioStat r;
    for (int i = 0; i < 10; ++i)
        r.record(i < 3);
    EXPECT_EQ(r.events(), 3u);
    EXPECT_EQ(r.total(), 10u);
    EXPECT_DOUBLE_EQ(r.ratio(), 0.3);
    EXPECT_DOUBLE_EQ(r.percent(), 30.0);

    RatioStat other;
    other.accumulate(1, 10);
    r.merge(other);
    EXPECT_DOUBLE_EQ(r.ratio(), 0.2);
}

TEST(Means, GeometricAndArithmetic)
{
    EXPECT_DOUBLE_EQ(geometricMean({2.0, 8.0}), 4.0);
    EXPECT_DOUBLE_EQ(arithmeticMean({2.0, 8.0}), 5.0);
    EXPECT_DOUBLE_EQ(geometricMean({}), 0.0);
    EXPECT_DOUBLE_EQ(arithmeticMean({}), 0.0);
}

// --------------------------------------------------------------- strutil

TEST(Strutil, WithCommas)
{
    EXPECT_EQ(withCommas(0), "0");
    EXPECT_EQ(withCommas(999), "999");
    EXPECT_EQ(withCommas(1000), "1,000");
    EXPECT_EQ(withCommas(1234567), "1,234,567");
    EXPECT_EQ(withCommas(1000000000ull), "1,000,000,000");
}

TEST(Strutil, NumberFormatting)
{
    EXPECT_EQ(percentString(0.12345), "12.35%");
    EXPECT_EQ(percentString(1.0, 0), "100%");
    EXPECT_EQ(fixedString(3.14159, 2), "3.14");
}

TEST(Strutil, Padding)
{
    EXPECT_EQ(padLeft("ab", 4), "  ab");
    EXPECT_EQ(padRight("ab", 4), "ab  ");
    EXPECT_EQ(padLeft("abcd", 2), "abcd");
}

TEST(Strutil, SplitAndJoin)
{
    EXPECT_EQ(split("a,b,,c", ','),
              (std::vector<std::string>{"a", "b", "", "c"}));
    EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
    EXPECT_EQ(join({"a", "b", "c"}, "-"), "a-b-c");
    EXPECT_EQ(join({}, "-"), "");
}

TEST(Strutil, Predicates)
{
    EXPECT_TRUE(startsWith("--flag", "--"));
    EXPECT_FALSE(startsWith("-", "--"));
    EXPECT_EQ(toLower("AbC"), "abc");
    EXPECT_EQ(trim("  x y  "), "x y");
    EXPECT_EQ(trim("   "), "");
}

TEST(Strutil, ParseUint64)
{
    std::uint64_t v = 0;
    EXPECT_TRUE(parseUint64("42", v));
    EXPECT_EQ(v, 42u);
    EXPECT_TRUE(parseUint64(" 7 ", v));
    EXPECT_EQ(v, 7u);
    EXPECT_FALSE(parseUint64("", v));
    EXPECT_FALSE(parseUint64("-1", v));
    EXPECT_FALSE(parseUint64("12x", v));
    EXPECT_FALSE(parseUint64("x12", v));
}

TEST(Strutil, ParseDouble)
{
    double v = 0;
    EXPECT_TRUE(parseDouble("3.5", v));
    EXPECT_DOUBLE_EQ(v, 3.5);
    EXPECT_TRUE(parseDouble("-2e3", v));
    EXPECT_DOUBLE_EQ(v, -2000.0);
    EXPECT_FALSE(parseDouble("", v));
    EXPECT_FALSE(parseDouble("abc", v));
}

// -------------------------------------------------------- FlatCounterMap

TEST(FlatCounterMap, BasicCounting)
{
    FlatCounterMap m;
    EXPECT_TRUE(m.empty());
    m.increment(5);
    m.increment(5);
    m.increment(9, 10);
    EXPECT_EQ(m.count(5), 2u);
    EXPECT_EQ(m.count(9), 10u);
    EXPECT_EQ(m.count(7), 0u);
    EXPECT_EQ(m.size(), 2u);
}

TEST(FlatCounterMap, MatchesUnorderedMapReference)
{
    // Property test: random increments agree with unordered_map.
    Pcg32 rng(53);
    FlatCounterMap flat;
    std::unordered_map<std::uint32_t, std::uint64_t> ref;
    for (int i = 0; i < 100000; ++i) {
        std::uint32_t key = rng.nextBounded(500);
        std::uint64_t delta = 1 + rng.nextBounded(3);
        flat.increment(key, delta);
        ref[key] += delta;
    }
    EXPECT_EQ(flat.size(), ref.size());
    for (const auto &[k, v] : ref)
        ASSERT_EQ(flat.count(k), v) << "key " << k;

    std::uint64_t visited = 0;
    flat.forEach([&](std::uint32_t k, std::uint64_t v) {
        ASSERT_EQ(ref.at(k), v);
        ++visited;
    });
    EXPECT_EQ(visited, ref.size());
}

TEST(FlatCounterMap, ClearKeepsWorking)
{
    FlatCounterMap m;
    for (std::uint32_t i = 0; i < 100; ++i)
        m.increment(i);
    m.clear();
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.count(50), 0u);
    m.increment(50);
    EXPECT_EQ(m.count(50), 1u);
}

TEST(FlatCounterMap, HotKeyAtLoadBoundaryDoesNotGrow)
{
    // Regression: increment() decided to grow before probing, so a hit
    // on an existing key at the 70% load boundary rehashed the whole
    // table even though no insertion was happening.
    FlatCounterMap m;
    for (std::uint32_t i = 0; i < 11; ++i)
        m.increment(i);
    // 11 of 16 slots used: the next *insertion* must grow (12 > 11.2),
    // so a hit on an existing key sits exactly on the boundary.
    ASSERT_EQ(m.capacity(), 16u);
    ASSERT_EQ(m.size(), 11u);

    std::size_t before = m.capacity();
    for (int i = 0; i < 1000; ++i)
        m.increment(5);
    EXPECT_EQ(m.capacity(), before);
    EXPECT_EQ(m.count(5), 1001u);
    EXPECT_EQ(m.size(), 11u);

    // A genuinely new key still grows.
    m.increment(999);
    EXPECT_EQ(m.capacity(), 32u);
    EXPECT_EQ(m.size(), 12u);
    for (std::uint32_t i = 0; i < 11; ++i)
        EXPECT_EQ(m.count(i), i == 5 ? 1001u : 1u);
}

// ------------------------------------------------------- DenseCounterRow

TEST(DenseCounterRow, SpillKeepsExactCountsAcrossTheGuard)
{
    // A spill bound of 3 drives the wrap guard every few passes; the
    // u64 totals must match a plain reference across every spill,
    // also while the key range grows between passes.
    DenseCounterRow row(3);
    std::vector<std::uint64_t> ref;
    Pcg32 rng(71);
    for (int pass = 0; pass < 200; ++pass) {
        std::size_t keys = 8 + pass / 4;
        ref.resize(keys, 0);
        std::uint32_t *cells = row.beginPass(keys);
        for (std::uint32_t key = 0; key < keys; ++key) {
            if (rng.nextBool(0.7)) {
                ++cells[key];
                ++ref[key];
            }
        }
        for (std::uint32_t key = 0; key < keys; ++key)
            ASSERT_EQ(row.count(key), ref[key])
                << "pass " << pass << " key " << key;
    }
    std::size_t visited = 0;
    row.forEach([&](std::uint32_t key, std::uint64_t count) {
        EXPECT_EQ(count, ref[key]);
        ++visited;
    });
    EXPECT_EQ(visited, static_cast<std::size_t>(std::count_if(
                           ref.begin(), ref.end(),
                           [](std::uint64_t c) { return c != 0; })));
}

TEST(DenseCounterRow, AdoptedCountsPastTheBoundGoWide)
{
    FlatCounterMap sparse;
    sparse.increment(1, 2);
    sparse.increment(4, 10); // beyond the bound of 5: spilled on adopt
    DenseCounterRow row(5);
    row.adopt(sparse, 6);
    EXPECT_EQ(row.count(1), 2u);
    EXPECT_EQ(row.count(4), 10u);
    for (int pass = 0; pass < 7; ++pass)
        ++row.beginPass(9)[4];
    EXPECT_EQ(row.count(1), 2u);
    EXPECT_EQ(row.count(4), 17u);
    EXPECT_EQ(row.count(8), 0u);
}

TEST(DenseCounterRow, DefaultBoundSpillsAtTheU32Limit)
{
    // The production bound: a cell already at 2^32 - 1 (adopted from
    // a sparse row) must spill before the next pass adds to it.
    FlatCounterMap sparse;
    sparse.increment(0, DenseCounterRow::max_cell);
    sparse.increment(2, 1);
    DenseCounterRow row;
    row.adopt(sparse, 3);
    EXPECT_EQ(row.count(0), 0xffffffffull);
    std::uint32_t *cells = row.beginPass(3);
    ++cells[0];
    ++cells[2];
    EXPECT_EQ(row.count(0), 0x100000000ull);
    EXPECT_EQ(row.count(2), 2u);
    EXPECT_EQ(row.count(1), 0u);
}

TEST(SlotTable, NumbersKeysInInsertionOrderAcrossGrowth)
{
    // Slots follow insertion order through every growth of the
    // table; keys 0 and ~0 are ordinary keys (an empty entry is
    // marked by its slot, not by a key value).
    SlotTable table;
    EXPECT_EQ(table.find(0), SlotTable::npos);
    std::vector<std::uint64_t> keys = {0, ~std::uint64_t(0)};
    for (std::uint64_t i = 1; i <= 1000; ++i)
        keys.push_back(0x400000 + 8 * i * i);
    for (std::size_t i = 0; i < keys.size(); ++i) {
        EXPECT_EQ(table.add(keys[i]), i);
        EXPECT_EQ(table.size(), i + 1);
    }
    for (std::size_t i = 0; i < keys.size(); ++i)
        EXPECT_EQ(table.find(keys[i]), i);
    EXPECT_EQ(table.find(4), SlotTable::npos);
    EXPECT_EQ(table.find(0x400000 + 8), 2u);
    // At most half full: two entries (key and slot) per key or more.
    EXPECT_GE(table.bytes(), 2 * keys.size() *
                                 (sizeof(std::uint64_t) +
                                  sizeof(std::uint32_t)));
}

// ------------------------------------------------------------------- cli

TEST(Cli, ParsesKnownForms)
{
    const char *raw[] = {"prog",        "--alpha=3",  "--beta",
                         "7",           "--gamma",    "--unknown=1",
                         "positional"};
    int argc = 7;
    std::vector<char *> argv_vec;
    for (const char *a : raw)
        argv_vec.push_back(const_cast<char *>(a));

    CliOptions opts = CliOptions::parse(
        argc, argv_vec.data(), {"alpha", "beta", "gamma"});

    EXPECT_EQ(opts.getUint("alpha", 0), 3u);
    EXPECT_EQ(opts.getUint("beta", 0), 7u);
    EXPECT_TRUE(opts.getBool("gamma", false));
    EXPECT_FALSE(opts.has("unknown"));

    // Unknown flags and positionals remain in argv.
    EXPECT_EQ(argc, 3);
    EXPECT_STREQ(argv_vec[1], "--unknown=1");
    EXPECT_STREQ(argv_vec[2], "positional");
}

TEST(Cli, Defaults)
{
    int argc = 1;
    const char *raw[] = {"prog"};
    std::vector<char *> argv_vec{const_cast<char *>(raw[0])};
    CliOptions opts = CliOptions::parse(argc, argv_vec.data(), {"x"});
    EXPECT_EQ(opts.getUint("x", 99), 99u);
    EXPECT_EQ(opts.getString("x", "d"), "d");
    EXPECT_DOUBLE_EQ(opts.getDouble("x", 1.5), 1.5);
    EXPECT_TRUE(opts.getBool("x", true));
}

TEST(Cli, BooleanSpellings)
{
    const char *raw[] = {"prog", "--a=true", "--b=false", "--c=1",
                         "--d=no"};
    int argc = 5;
    std::vector<char *> argv_vec;
    for (const char *a : raw)
        argv_vec.push_back(const_cast<char *>(a));
    CliOptions opts =
        CliOptions::parse(argc, argv_vec.data(), {"a", "b", "c", "d"});
    EXPECT_TRUE(opts.getBool("a", false));
    EXPECT_FALSE(opts.getBool("b", true));
    EXPECT_TRUE(opts.getBool("c", false));
    EXPECT_FALSE(opts.getBool("d", true));
}

TEST(Cli, UnknownFlagsAreLeftInArgv)
{
    const char *raw[] = {"prog", "--scale=2", "--bogus=1", "input.txt",
                         "--also-bad"};
    int argc = 5;
    std::vector<char *> argv_vec;
    for (const char *a : raw)
        argv_vec.push_back(const_cast<char *>(a));
    CliOptions opts =
        CliOptions::parse(argc, argv_vec.data(), {"scale"});
    EXPECT_DOUBLE_EQ(opts.getDouble("scale", 1.0), 2.0);

    std::vector<std::string> unknown =
        CliOptions::unknownFlags(argc, argv_vec.data());
    ASSERT_EQ(unknown.size(), 2u);
    EXPECT_EQ(unknown[0], "--bogus=1");
    EXPECT_EQ(unknown[1], "--also-bad");
}

TEST(Cli, ValueFlagFollowedByFlagIsBare)
{
    // Regression: `--csv --json=r.json` used to hand --csv the
    // fabricated value "true", silently writing a CSV named "true".
    // The following `--` flag must parse as its own option and the
    // value-less flag must be detectable as bare.
    const char *raw[] = {"prog", "--csv", "--json=r.json"};
    int argc = 3;
    std::vector<char *> argv_vec;
    for (const char *a : raw)
        argv_vec.push_back(const_cast<char *>(a));
    CliOptions opts =
        CliOptions::parse(argc, argv_vec.data(), {"csv", "json"});

    EXPECT_EQ(opts.getString("json", ""), "r.json");
    EXPECT_TRUE(opts.isBare("csv"));
    EXPECT_FALSE(opts.isBare("json"));
    EXPECT_EQ(argc, 1); // both flags consumed
}

TEST(Cli, LaterValuedOccurrenceClearsBare)
{
    const char *raw[] = {"prog", "--csv", "--csv=out.csv"};
    int argc = 3;
    std::vector<char *> argv_vec;
    for (const char *a : raw)
        argv_vec.push_back(const_cast<char *>(a));
    CliOptions opts =
        CliOptions::parse(argc, argv_vec.data(), {"csv"});
    EXPECT_FALSE(opts.isBare("csv"));
    EXPECT_EQ(opts.getRequiredString("csv", ""), "out.csv");
}

TEST(CliDeath, BareValueFlagIsFatalWhenValueRequired)
{
    const char *raw[] = {"prog", "--threshold", "--json=r.json"};
    int argc = 3;
    std::vector<char *> argv_vec;
    for (const char *a : raw)
        argv_vec.push_back(const_cast<char *>(a));
    CliOptions opts = CliOptions::parse(argc, argv_vec.data(),
                                        {"threshold", "json"});

    EXPECT_DEATH(opts.getUint("threshold", 100), "requires a value");
    EXPECT_DEATH(opts.getDouble("threshold", 1.0), "requires a value");
    EXPECT_DEATH(opts.getRequiredString("threshold", ""),
                 "requires a value");
}

TEST(Cli, ApplyLogLevelOptionsQuietWins)
{
    const char *raw[] = {"prog", "--quiet", "--verbose"};
    int argc = 3;
    std::vector<char *> argv_vec;
    for (const char *a : raw)
        argv_vec.push_back(const_cast<char *>(a));
    CliOptions opts = CliOptions::parse(argc, argv_vec.data(),
                                        {"quiet", "verbose"});

    LogLevel before = logLevel();
    applyLogLevelOptions(opts);
    EXPECT_EQ(logLevel(), LogLevel::Quiet);
    setLogLevel(before);
}
