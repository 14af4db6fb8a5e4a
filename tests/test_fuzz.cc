/**
 * @file
 * Seeded mutation fuzzing of the decoders of untrusted bytes.
 *
 * A PCG32 mutator flips bits, truncates, splices in slices of other
 * valid inputs and overwrites fields with edge values, under a fixed
 * iteration budget and a wall-clock cap.  The invariant for every
 * mutated input: the decoder returns a typed status and never
 * crashes (the ASan+UBSan CI job runs this binary too), and whatever
 * it accepts re-encodes to canonical bytes that decode back to the
 * same bytes.
 *
 * Targets: the profile artifact (parseProfileArtifact) and the
 * artifact-cache envelope (ArtifactCache::load), the latter both as a
 * mutated object file and as a mutated payload behind a valid
 * envelope (loadProfileArtifact).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "store/artifact_cache.hh"
#include "store/profile_artifact.hh"
#include "test_helpers.hh"
#include "trace/varint.hh"
#include "util/logging.hh"
#include "util/random.hh"

using namespace bwsa;
using namespace bwsa::store;

namespace
{

/** Valid artifacts of assorted shapes: the corpus mutations start from. */
std::vector<std::string>
artifactCorpus()
{
    std::vector<std::string> corpus;
    corpus.push_back(serializeProfileArtifact(ProfileArtifact{}));
    for (std::uint64_t seed : {11, 12, 13, 14}) {
        Pcg32 rng(seed);
        MemoryTrace trace;
        std::uint64_t ts = 0;
        for (int i = 0; i < 400; ++i) {
            BranchRecord r;
            r.pc = 0x400000 + 8ull * rng.nextBounded(12 + 8 * seed);
            ts += 1 + rng.nextBounded(9);
            r.timestamp = ts;
            r.taken = rng.nextBool(0.5);
            trace.onBranch(r);
        }
        AllocationPipeline pipeline;
        testhelpers::profileRun(pipeline, trace);
        corpus.push_back(serializeProfileArtifact(
            ProfileArtifact{pipeline.lastStats(), pipeline.lastSelection(),
                            pipeline.graph()}));
    }
    return corpus;
}

/** Values that sit on a validation boundary of some field. */
constexpr std::uint64_t edge_values[] = {
    0, 1, 2, 0xffffffffull, 0x100000000ull, 0x100000001ull,
    std::uint64_t(1) << 63, ~std::uint64_t(0)};

/** One to three random edits of @p input. */
std::string
mutate(Pcg32 &rng, const std::string &input,
       const std::vector<std::string> &donors)
{
    std::string out = input;
    const unsigned edits = 1 + rng.nextBounded(3);
    for (unsigned e = 0; e < edits; ++e) {
        const auto size = static_cast<std::uint32_t>(out.size());
        switch (rng.nextBounded(4)) {
          case 0: // flip one bit
            if (size > 0)
                out[rng.nextBounded(size)] ^=
                    static_cast<char>(1u << rng.nextBounded(8));
            break;
          case 1: // truncate
            out.resize(rng.nextBounded(size + 1));
            break;
          case 2: { // replace up to 64 bytes with a donor's slice
            const std::string &donor =
                donors[rng.nextBounded(
                    static_cast<std::uint32_t>(donors.size()))];
            const auto dsize = static_cast<std::uint32_t>(donor.size());
            std::uint32_t from = rng.nextBounded(dsize + 1);
            std::uint32_t len =
                rng.nextBounded(std::min(dsize - from, 64u) + 1);
            std::uint32_t at = rng.nextBounded(size + 1);
            std::uint32_t cut =
                rng.nextBounded(std::min(size - at, 64u) + 1);
            out.replace(at, cut, donor, from, len);
            break;
          }
          default: { // overwrite a (usually field-aligned) u64
            if (size < 8)
                break;
            std::uint32_t at = rng.nextBounded(size - 7);
            if (rng.nextBool(0.75))
                at -= at % 8;
            std::string field;
            appendU64(field, edge_values[rng.nextBounded(
                                 static_cast<std::uint32_t>(
                                     std::size(edge_values)))]);
            out.replace(at, 8, field);
            break;
          }
        }
    }
    return out;
}

/** Counts of each parse outcome over a fuzz run. */
struct Outcomes
{
    std::uint64_t ok = 0;
    std::uint64_t stale = 0;
    std::uint64_t corrupt = 0;
};

/**
 * Parse @p bytes and check the invariant: a typed status, nothing
 * restored on failure, and an accepted artifact whose canonical bytes
 * parse back to themselves.
 */
void
checkArtifact(std::string_view bytes, Outcomes &outcomes)
{
    ProfileArtifact parsed;
    ArtifactParseStatus status = parseProfileArtifact(bytes, parsed);
    if (status == ArtifactParseStatus::Stale ||
        status == ArtifactParseStatus::Corrupt) {
        ++(status == ArtifactParseStatus::Stale ? outcomes.stale
                                                : outcomes.corrupt);
        ASSERT_EQ(parsed.graph.nodeCount(), 0u);
        ASSERT_EQ(parsed.stats.staticBranches(), 0u);
        ASSERT_TRUE(parsed.selection.selected.empty());
        return;
    }
    ASSERT_EQ(status, ArtifactParseStatus::Ok);
    ++outcomes.ok;
    ASSERT_TRUE(testhelpers::edgeInvariantHolds(parsed.graph));
    ASSERT_LE(parsed.selection.analyzed_dynamic,
              parsed.selection.total_dynamic);
    const std::string canonical = serializeProfileArtifact(parsed);
    ASSERT_EQ(serializedProfileArtifactSize(parsed), canonical.size());
    ProfileArtifact again;
    ASSERT_EQ(parseProfileArtifact(canonical, again),
              ArtifactParseStatus::Ok);
    ASSERT_EQ(serializeProfileArtifact(again), canonical);
}

/** Wall-clock cap per target, so a sanitizer build stays bounded. */
constexpr auto time_cap = std::chrono::seconds(4);

/** Quiets the expected "corrupt entry" warnings for one scope. */
struct QuietLog
{
    LogLevel saved = logLevel();
    QuietLog() { setLogLevel(LogLevel::Quiet); }
    ~QuietLog() { setLogLevel(saved); }
    QuietLog(const QuietLog &) = delete;
    QuietLog &operator=(const QuietLog &) = delete;
};

} // namespace

TEST(MutationFuzz, ArtifactAndCacheEnvelopeFailTyped)
{
    QuietLog quiet;
    const std::vector<std::string> corpus = artifactCorpus();
    Pcg32 rng(0x5eed2029);

    // The artifact parser, straight on mutated bytes.
    Outcomes artifact;
    constexpr int artifact_budget = 30000;
    auto deadline = std::chrono::steady_clock::now() + time_cap;
    int runs = 0;
    for (; runs < artifact_budget &&
           std::chrono::steady_clock::now() < deadline;
         ++runs) {
        const std::string &seed = corpus[rng.nextBounded(
            static_cast<std::uint32_t>(corpus.size()))];
        checkArtifact(mutate(rng, seed, corpus), artifact);
        if (HasFatalFailure())
            return;
    }
    std::printf("artifact: %d runs, %llu ok, %llu stale, %llu corrupt\n",
                runs, static_cast<unsigned long long>(artifact.ok),
                static_cast<unsigned long long>(artifact.stale),
                static_cast<unsigned long long>(artifact.corrupt));
    // Every outcome was reached, so the mutations got past the header.
    EXPECT_GT(artifact.ok, 0u);
    EXPECT_GT(artifact.stale, 0u);
    EXPECT_GT(artifact.corrupt, 0u);

    // The cache envelope: a mutated object file behind a live index
    // entry, and a mutated payload behind a valid envelope.
    const std::string dir =
        (std::filesystem::temp_directory_path() / "bwsa_fuzz_cache")
            .string();
    std::filesystem::remove_all(dir);
    ArtifactCache cache(dir);
    const std::string key = "00112233445566778899aabbccddeeff";
    const std::string object = dir + "/" + key + ".obj";
    std::vector<std::string> envelopes;
    for (const std::string &payload : corpus) {
        cache.store(key, payload);
        std::ifstream in(object, std::ios::binary);
        envelopes.emplace_back(std::istreambuf_iterator<char>(in),
                               std::istreambuf_iterator<char>());
        ASSERT_EQ(cache.load(key), payload);
    }

    Outcomes envelope;
    std::uint64_t hits = 0;
    constexpr int envelope_budget = 3000;
    deadline = std::chrono::steady_clock::now() + time_cap;
    runs = 0;
    for (; runs < envelope_budget &&
           std::chrono::steady_clock::now() < deadline;
         ++runs) {
        const std::size_t pick = rng.nextBounded(
            static_cast<std::uint32_t>(corpus.size()));
        if (runs % 2 == 0) {
            cache.store(key, corpus[pick]);
            const std::string damaged =
                mutate(rng, envelopes[pick], envelopes);
            {
                std::ofstream out(object,
                                  std::ios::binary | std::ios::trunc);
                out.write(damaged.data(),
                          static_cast<std::streamsize>(damaged.size()));
            }
            std::optional<std::string> got = cache.load(key);
            if (got) {
                // Only an envelope whose size and CRC match its
                // payload is accepted, and then exactly that payload.
                ++hits;
                ASSERT_GE(damaged.size(), 20u);
                ASSERT_EQ(*got, damaged.substr(20));
                checkArtifact(*got, envelope);
            } else {
                ASSERT_FALSE(cache.contains(key));
            }
        } else {
            // Loading parses; an unusable payload drops the entry.
            const std::string payload = mutate(rng, corpus[pick], corpus);
            checkArtifact(payload, envelope);
            ProfileArtifact expected;
            const bool usable = parseProfileArtifact(payload, expected) ==
                                ArtifactParseStatus::Ok;
            cache.store(key, payload);
            std::optional<ProfileArtifact> loaded =
                loadProfileArtifact(cache, key);
            ASSERT_EQ(loaded.has_value(), usable);
            ASSERT_EQ(cache.contains(key), usable);
            if (loaded) {
                ASSERT_EQ(serializeProfileArtifact(*loaded),
                          serializeProfileArtifact(expected));
            }
        }
        if (HasFatalFailure())
            break;
    }
    std::printf("envelope: %d runs, %llu hits, %llu ok, %llu stale, "
                "%llu corrupt\n",
                runs, static_cast<unsigned long long>(hits),
                static_cast<unsigned long long>(envelope.ok),
                static_cast<unsigned long long>(envelope.stale),
                static_cast<unsigned long long>(envelope.corrupt));
    EXPECT_GT(envelope.ok, 0u);
    EXPECT_GT(envelope.corrupt, 0u);
    std::filesystem::remove_all(dir);
}
