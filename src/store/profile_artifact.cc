#include "store/profile_artifact.hh"

#include <algorithm>
#include <array>
#include <cstring>
#include <vector>

#include "obs/metrics.hh"
#include "trace/varint.hh"
#include "util/logging.hh"

namespace bwsa::store
{

namespace
{

constexpr std::array<char, 4> artifact_magic = {'B', 'W', 'S', 'P'};

} // namespace

std::string
serializeProfileArtifact(const ProfileArtifact &artifact)
{
    std::string out;
    out.append(artifact_magic.data(), artifact_magic.size());
    appendU32(out, profile_artifact_schema);

    // Stats, sorted by pc for canonical bytes.
    {
        const auto &table = artifact.stats.table();
        std::vector<BranchPc> pcs;
        pcs.reserve(table.size());
        for (const auto &[pc, counts] : table)
            pcs.push_back(pc);
        std::sort(pcs.begin(), pcs.end());
        appendU64(out, artifact.stats.lastTimestamp());
        appendU64(out, pcs.size());
        for (BranchPc pc : pcs) {
            const BranchCounts &counts = table.at(pc);
            appendU64(out, pc);
            appendU64(out, counts.executed);
            appendU64(out, counts.taken);
        }
    }

    // Selection.
    {
        const FrequencySelection &sel = artifact.selection;
        std::vector<BranchPc> pcs(sel.selected.begin(),
                                  sel.selected.end());
        std::sort(pcs.begin(), pcs.end());
        appendU64(out, sel.total_dynamic);
        appendU64(out, sel.analyzed_dynamic);
        appendU64(out, pcs.size());
        for (BranchPc pc : pcs)
            appendU64(out, pc);
    }

    // Graph: nodes positionally (id order), edges by packed key (the
    // graph's own edge order).
    {
        const ConflictGraph &graph = artifact.graph;
        appendU64(out, graph.nodeCount());
        for (const ConflictNode &node : graph.nodes()) {
            appendU64(out, node.pc);
            appendU64(out, node.executed);
            appendU64(out, node.taken);
        }
        appendU64(out, graph.edgeCount());
        for (const auto &[key, count] : graph.edges()) {
            appendU64(out, key);
            appendU64(out, count);
        }
    }
    return out;
}

ArtifactParseStatus
parseProfileArtifact(std::string_view bytes, ProfileArtifact &out)
{
    if (bytes.size() < 8 ||
        std::memcmp(bytes.data(), artifact_magic.data(), 4) != 0)
        return ArtifactParseStatus::Corrupt;
    ByteCursor cur(bytes.data() + 4, bytes.size() - 4);
    std::uint32_t schema = 0;
    cur.getU32(schema);
    if (schema != profile_artifact_schema)
        return ArtifactParseStatus::Stale;

    ProfileArtifact parsed;

    std::uint64_t last_timestamp = 0, branch_count = 0;
    if (!cur.getU64(last_timestamp) || !cur.getU64(branch_count))
        return ArtifactParseStatus::Corrupt;
    for (std::uint64_t i = 0; i < branch_count; ++i) {
        std::uint64_t pc = 0;
        BranchCounts counts;
        if (!cur.getU64(pc) || !cur.getU64(counts.executed) ||
            !cur.getU64(counts.taken) ||
            counts.taken > counts.executed)
            return ArtifactParseStatus::Corrupt;
        parsed.stats.restoreCounts(pc, counts);
    }
    parsed.stats.restoreLastTimestamp(last_timestamp);

    std::uint64_t selected_count = 0;
    if (!cur.getU64(parsed.selection.total_dynamic) ||
        !cur.getU64(parsed.selection.analyzed_dynamic) ||
        !cur.getU64(selected_count))
        return ArtifactParseStatus::Corrupt;
    for (std::uint64_t i = 0; i < selected_count; ++i) {
        std::uint64_t pc = 0;
        if (!cur.getU64(pc))
            return ArtifactParseStatus::Corrupt;
        parsed.selection.selected.insert(pc);
    }

    std::uint64_t node_count = 0;
    if (!cur.getU64(node_count))
        return ArtifactParseStatus::Corrupt;
    for (std::uint64_t i = 0; i < node_count; ++i) {
        std::uint64_t pc = 0, executed = 0, taken = 0;
        if (!cur.getU64(pc) || !cur.getU64(executed) ||
            !cur.getU64(taken) || taken > executed)
            return ArtifactParseStatus::Corrupt;
        // Nodes were written in id order, so ids are reassigned
        // identically here.
        if (parsed.graph.restoreNode(pc, executed, taken) !=
            static_cast<NodeId>(i))
            return ArtifactParseStatus::Corrupt;
    }
    std::uint64_t edge_count = 0;
    if (!cur.getU64(edge_count))
        return ArtifactParseStatus::Corrupt;
    // A count that overshoots the payload (16 bytes per record) is
    // corrupt before anything is allocated for it.
    if (edge_count > cur.remaining() / 16)
        return ArtifactParseStatus::Corrupt;
    std::vector<ConflictGraph::Edge> edges;
    edges.reserve(static_cast<std::size_t>(edge_count));
    for (std::uint64_t i = 0; i < edge_count; ++i) {
        std::uint64_t key = 0, count = 0;
        if (!cur.getU64(key) || !cur.getU64(count) || count == 0)
            return ArtifactParseStatus::Corrupt;
        auto [a, b] = ConflictGraph::unpackEdge(key);
        if (a >= node_count || b >= node_count || a == b)
            return ArtifactParseStatus::Corrupt;
        edges.emplace_back(ConflictGraph::packEdge(a, b), count);
    }
    // Canonical artifacts are already sorted; anything else is sorted
    // here and duplicate keys add up, then the edges load as one run.
    if (!std::is_sorted(edges.begin(), edges.end()))
        std::sort(edges.begin(), edges.end());
    std::size_t unique = 0;
    for (std::size_t i = 0; i < edges.size(); ++i) {
        if (unique > 0 && edges[unique - 1].first == edges[i].first) {
            std::uint64_t &sum = edges[unique - 1].second;
            if (sum + edges[i].second < sum)
                return ArtifactParseStatus::Corrupt; // count overflow
            sum += edges[i].second;
        } else {
            edges[unique++] = edges[i];
        }
    }
    edges.resize(unique);
    std::vector<std::vector<ConflictGraph::Edge>> runs;
    runs.push_back(std::move(edges));
    parsed.graph.mergeEdges(std::move(runs));

    if (!cur.atEnd())
        return ArtifactParseStatus::Corrupt;
    out = std::move(parsed);
    return ArtifactParseStatus::Ok;
}

std::optional<ProfileArtifact>
loadProfileArtifact(ArtifactCache &cache, const std::string &key)
{
    std::optional<std::string> payload = cache.load(key);
    if (!payload)
        return std::nullopt;
    ProfileArtifact artifact;
    ArtifactParseStatus status =
        parseProfileArtifact(*payload, artifact);
    if (status == ArtifactParseStatus::Ok)
        return artifact;
    const char *why = status == ArtifactParseStatus::Stale
                          ? "stale schema"
                          : "corrupt payload";
    const char *metric = status == ArtifactParseStatus::Stale
                             ? "store.artifact.stale"
                             : "store.artifact.corrupt";
    warn("cached profile artifact ", key, " unusable (", why,
         "); re-profiling");
    obs::MetricsRegistry::global().counter(metric).inc();
    cache.invalidate(key);
    return std::nullopt;
}

void
storeProfileArtifact(ArtifactCache &cache, const std::string &key,
                     const ProfileArtifact &artifact)
{
    cache.store(key, serializeProfileArtifact(artifact));
}

} // namespace bwsa::store
