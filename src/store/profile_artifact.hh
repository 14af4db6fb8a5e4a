/**
 * @file
 * Versioned binary serialization of a profile run's outputs.
 *
 * A ProfileArtifact bundles exactly what one committed+finished
 * ProfileSession contributes to an AllocationPipeline: the whole-
 * stream statistics, the frequency selection, and the (unpruned) run
 * conflict graph.  Serializing the unpruned graph means the edge
 * threshold is an allocation-time knob, not part of the cache key --
 * sweeping thresholds over one trace hits one cached artifact.
 *
 * Payload layout (little-endian, all collections sorted so equal
 * profiles serialize to equal bytes):
 *
 *   magic "BWSP" | u32 schema version
 *   stats:      u64 last timestamp | u64 branch count |
 *               per branch (by ascending pc): u64 pc | u64 executed |
 *               u64 taken
 *   selection:  u64 total dynamic | u64 analyzed dynamic |
 *               u64 selected count | u64 pc... (ascending)
 *   graph:      u64 node count | per node (by node id): u64 pc |
 *               u64 executed | u64 taken
 *               u64 edge count | per edge (by ascending packed key):
 *               u64 packed(min id, max id) | u64 count
 *
 * Node ids are positional, so a graph round-trips with identical ids
 * and the downstream allocator (which iterates nodes in id order)
 * produces byte-identical tables from a cached or a fresh profile.
 *
 * The schema version is checked on parse: a payload from an older
 * (or newer) schema parses as Stale and the caller drops the cache
 * entry -- bumping profile_artifact_schema is the invalidation knob
 * whenever profiling semantics change.  Structural damage that the
 * cache envelope's CRC cannot see (it protects bytes, not meaning)
 * parses as Corrupt: a truncated or overlong payload, taken above
 * executed, a count total past 2^64 (duplicate stats pcs and
 * duplicate edge keys add up), analyzed above total dynamic, an edge
 * with a zero count or an endpoint out of range.
 */

#ifndef BWSA_STORE_PROFILE_ARTIFACT_HH
#define BWSA_STORE_PROFILE_ARTIFACT_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "profile/conflict_graph.hh"
#include "store/artifact_cache.hh"
#include "trace/frequency_filter.hh"
#include "trace/trace_stats.hh"

namespace bwsa::store
{

/**
 * Schema version of the serialized form.  Bump whenever the layout
 * or the *meaning* of any serialized field changes; existing cache
 * entries then read as Stale and are re-profiled.
 */
constexpr std::uint32_t profile_artifact_schema = 1;

/** The cacheable outputs of one profile run. */
struct ProfileArtifact
{
    TraceStatsCollector stats;
    FrequencySelection selection;
    ConflictGraph graph;
};

/** Outcome of parsing a serialized artifact. */
enum class ArtifactParseStatus
{
    Ok,      ///< artifact restored
    Stale,   ///< recognizably ours, but a different schema version
    Corrupt  ///< structurally damaged; never partially restored
};

/**
 * Exact byte size of serializeProfileArtifact(@p artifact), from the
 * section counts alone; the serializer reserves it once.
 */
std::size_t serializedProfileArtifactSize(const ProfileArtifact &artifact);

/** Serialize @p artifact to its canonical byte form. */
std::string serializeProfileArtifact(const ProfileArtifact &artifact);

/**
 * Parse @p bytes into @p out.  @p out is only modified when the
 * result is Ok.
 */
ArtifactParseStatus parseProfileArtifact(std::string_view bytes,
                                         ProfileArtifact &out);

/**
 * Fetch and parse the artifact under @p key.  Stale and corrupt
 * payloads invalidate the entry (counted as store.artifact.stale /
 * store.artifact.corrupt) and return nullopt, so callers re-profile.
 */
std::optional<ProfileArtifact>
loadProfileArtifact(ArtifactCache &cache, const std::string &key);

/** Serialize and publish @p artifact under @p key. */
void storeProfileArtifact(ArtifactCache &cache, const std::string &key,
                          const ProfileArtifact &artifact);

} // namespace bwsa::store

#endif // BWSA_STORE_PROFILE_ARTIFACT_HH
