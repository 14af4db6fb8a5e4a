/**
 * @file
 * The compiler-side branch allocation flow, end to end.
 *
 * This mirrors what a compiler using branch allocation would do at
 * profile-feedback time:
 *
 *   1. profile one or more training inputs of the application,
 *      merging the branch conflict graphs (Section 5.2's cumulative
 *      profiles);
 *   2. classify highly biased branches;
 *   3. color the conflict graph into the target BHT size;
 *   4. emit the static branch -> BHT entry map that would be encoded
 *      into the augmented branch instructions.
 *
 * Usage:
 *   ./compiler_pipeline [--preset=ss] [--entries=128] [--scale=0.5]
 *                       [--classify] [--graph-out=prof.bwsg]
 *                       [--shards=4]
 */

#include <cstdio>

#include "core/pipeline.hh"
#include "report/table.hh"
#include "sim/batched_replay.hh"
#include "util/cli.hh"
#include "util/logging.hh"
#include "util/strutil.hh"
#include "workload/presets.hh"

using namespace bwsa;

int
main(int argc, char **argv)
{
    CliOptions cli = CliOptions::parse(
        argc, argv,
        {"preset", "entries", "scale", "classify", "graph-out",
         "shards", "quiet", "verbose"});
    std::vector<std::string> unknown =
        CliOptions::unknownFlags(argc, argv);
    if (!unknown.empty())
        bwsa_fatal("unknown option '", unknown[0],
                   "' (supported: --preset --entries --scale "
                   "--classify --graph-out --shards --quiet "
                   "--verbose)");
    applyLogLevelOptions(cli);
    std::string preset = cli.getString("preset", "ss");
    std::uint64_t entries = cli.getUint("entries", 128);
    double scale = cli.getDouble("scale", 0.5);
    bool classify = cli.getBool("classify", true);
    std::string graph_out = cli.getString("graph-out", "");
    unsigned shards =
        static_cast<unsigned>(cli.getUint("shards", 1));
    if (shards == 0)
        bwsa_fatal("--shards must be >= 1");

    // --- 1. Profile every named input of the benchmark.
    PipelineConfig config;
    config.allocation.use_classification = classify;
    AllocationPipeline pipeline(config);

    for (const NamedInput &input : presetInputs(preset)) {
        Workload w = makeWorkload(preset, input.label, scale);
        WorkloadTraceSource source = w.source();

        // The explicit two-phase flow: statistics, commit (the
        // selection becomes visible here), then the interleave pass
        // -- sharded across a thread pool when --shards asks for it.
        ProfileSession session(pipeline);
        session.addStats(source);
        session.commit();
        std::printf("profiled %s/%s: %s dynamic branches over %zu "
                    "static (coverage %s)\n",
                    preset.c_str(), input.label.c_str(),
                    withCommas(pipeline.lastStats().dynamicBranches())
                        .c_str(),
                    pipeline.lastStats().staticBranches(),
                    percentString(pipeline.lastSelection().coverage())
                        .c_str());
        if (shards > 1) {
            ShardRunStats shard_stats =
                session.addInterleaveSharded(source, shards);
            std::printf("  interleave pass: %u shards on %u threads, "
                        "%.1f ms (stitch %.1f ms over %s records)\n",
                        shard_stats.shards, shard_stats.threads,
                        shard_stats.total_millis,
                        shard_stats.stitch.millis,
                        withCommas(shard_stats.stitch.records_scanned)
                            .c_str());
        } else {
            session.addInterleave(source);
        }
        session.finish();
    }

    const ConflictGraph &graph = pipeline.graph();
    std::printf("\ncumulative conflict graph: %zu branches, %zu "
                "edges\n",
                graph.nodeCount(), graph.edgeCount());
    if (!graph_out.empty()) {
        graph.save(graph_out);
        std::printf("conflict graph saved to %s\n", graph_out.c_str());
    }

    // --- 2+3. Allocate into the requested table.
    AllocationResult alloc = pipeline.allocate(entries);
    std::printf("\nallocation into %llu entries (%u reserved for "
                "biased classes): residual conflict %s, %zu branches "
                "share an entry with a conflicting branch\n",
                static_cast<unsigned long long>(entries),
                alloc.reserved_entries,
                withCommas(alloc.residual_conflict).c_str(),
                alloc.shared_nodes);

    RequiredSizeResult req = pipeline.requiredSize(1024);
    if (req.achieved)
        std::printf("smallest table matching a conventional "
                    "1024-entry BHT: %llu entries\n",
                    static_cast<unsigned long long>(
                        req.required_entries));

    // --- 4. Emit the map (first few rows) as a compiler would.
    TextTable map({"branch pc", "BHT entry"});
    std::size_t shown = 0;
    for (const ConflictNode &node : graph.nodes()) {
        if (shown++ >= 10)
            break;
        char pc_hex[32];
        std::snprintf(pc_hex, sizeof(pc_hex), "0x%llx",
                      static_cast<unsigned long long>(node.pc));
        map.addRow({pc_hex,
                    std::to_string(alloc.assignment.at(node.pc))});
    }
    std::printf("\nbranch -> BHT entry map (first 10 of %zu):\n%s",
                alloc.assignment.size(), map.render().c_str());

    // --- Validate: run the allocated predictor on the last input.
    Workload check = makeWorkload(
        preset, presetInputs(preset).back().label, scale);
    WorkloadTraceSource source = check.source();
    std::vector<PredictionStats> results = replayBatched(
        source,
        {paperBaselineSpec(), allocatedSpec(alloc.assignment, entries)});
    std::printf("\nvalidation on %s/%s: baseline PAg-1024 misses "
                "%s, allocated PAg-%llu misses %s\n",
                preset.c_str(),
                presetInputs(preset).back().label.c_str(),
                percentString(results[0].mispredicts.ratio(), 3)
                    .c_str(),
                static_cast<unsigned long long>(entries),
                percentString(results[1].mispredicts.ratio(), 3)
                    .c_str());
    return 0;
}
