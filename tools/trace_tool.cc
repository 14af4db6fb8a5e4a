/**
 * @file
 * Trace recording, offline analysis and container maintenance -- the
 * workflow of a trace-driven simulation shop: capture a benchmark's
 * dynamic branch stream into a v2 block container
 * (store/block_trace.hh) once, then run any number of analyses
 * against the file without re-executing.
 *
 * Commands:
 *   trace_tool record --preset=pgp --out=pgp.trace [--scale=0.5]
 *       Record a preset's branch stream.
 *
 *   trace_tool analyze --in=<trace> [--threshold=100] [--shards=4]
 *       Profile the conflict graph and print its working sets.
 *
 *   trace_tool simulate --in=<trace> [--entries=1024] [--shards=4]
 *       Profile, allocate and replay baseline / allocated / ideal PAg.
 *
 *   trace_tool convert --in=<trace> --out=<trace> [--block-records=N]
 *       Re-block a container.  The writer's bytes depend only on the
 *       records and the block size, so converting back to the
 *       original block size reproduces the original file exactly.
 *
 *   trace_tool info --in=<trace>
 *       Print record count, instruction range, the block index and a
 *       per-block CRC + decode status line.  Exits 1 when any block
 *       fails its check, so scripts can use it as an integrity gate.
 *
 * --shards runs the profiling pass of analyze/simulate sharded: the
 * file is split into contiguous segments replayed concurrently, each
 * reading only its own blocks.
 */

#include <cstdio>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.hh"
#include "core/working_set.hh"
#include "sim/batched_replay.hh"
#include "store/block_trace.hh"
#include "util/cli.hh"
#include "util/logging.hh"
#include "util/strutil.hh"
#include "workload/presets.hh"

namespace
{

using namespace bwsa;

[[noreturn]] void
usage()
{
    std::cerr
        << "usage: trace_tool record --preset=<name> [--out=<trace>]\n"
        << "                  [--scale=X]\n"
        << "       trace_tool analyze --in=<trace> [--threshold=N]\n"
        << "                  [--shards=N]\n"
        << "       trace_tool simulate --in=<trace> [--entries=N]\n"
        << "                  [--shards=N]\n"
        << "       trace_tool convert --in=<trace> --out=<trace>\n"
        << "                  [--block-records=N]\n"
        << "       trace_tool info --in=<trace>\n";
    std::exit(1);
}

/** The required --in of every command but record. */
std::string
inputPath(const CliOptions &options, const char *command)
{
    std::string in = options.getRequiredString("in", "");
    if (in.empty())
        bwsa_fatal(command, " needs --in=<trace>");
    return in;
}

/** --shards value shared by the analyze/simulate commands. */
unsigned
shardOption(const CliOptions &options)
{
    unsigned shards =
        static_cast<unsigned>(options.getUint("shards", 1));
    if (shards == 0)
        bwsa_fatal("--shards must be >= 1");
    return shards;
}

int
runRecord(const CliOptions &options)
{
    std::string preset = options.getRequiredString("preset", "pgp");
    std::string out =
        options.getRequiredString("out", preset + ".trace");
    double scale = options.getDouble("scale", 0.5);

    Workload w = makeWorkload(preset, "", scale);
    WorkloadTraceSource source = w.source();
    std::uint64_t records = store::writeBlockTraceFile(out, source);
    std::printf("recorded %s dynamic branches of %s into %s\n",
                withCommas(records).c_str(), preset.c_str(),
                out.c_str());
    return 0;
}

int
runAnalyze(const CliOptions &options)
{
    std::string in = inputPath(options, "analyze");
    std::uint64_t threshold = options.getUint("threshold", 100);
    unsigned shards = shardOption(options);

    auto reader = store::openTraceReader(in);
    std::printf("%s: %s records\n", in.c_str(),
                withCommas(reader->recordCount()).c_str());

    ShardConfig shard_config;
    shard_config.shards = shards;
    ConflictGraph graph;
    ShardRunStats shard_stats =
        profileTraceSharded(*reader, graph, shard_config);
    if (shard_stats.shards > 1)
        std::printf("profiled in %.1f ms across %u shards on %u "
                    "threads (stitch %.1f ms)\n",
                    shard_stats.total_millis, shard_stats.shards,
                    shard_stats.threads, shard_stats.stitch.millis);
    ConflictGraph pruned = graph.pruned(threshold);
    WorkingSetResult sets =
        findWorkingSets(pruned, WorkingSetDefinition::SeededClique);
    WorkingSetStats stats = computeWorkingSetStats(pruned, sets);

    std::printf("conflict graph: %zu branches, %zu edges (%zu above "
                "threshold)\n",
                graph.nodeCount(), graph.edgeCount(),
                pruned.edgeCount());
    std::printf("working sets: %zu total, avg static %.1f, avg "
                "dynamic %.1f\n",
                stats.total_sets, stats.avg_static_size,
                stats.avg_dynamic_size);
    return 0;
}

int
runSimulate(const CliOptions &options)
{
    std::string in = inputPath(options, "simulate");
    std::uint64_t entries = options.getUint("entries", 1024);
    unsigned shards = shardOption(options);

    auto reader = store::openTraceReader(in);

    PipelineConfig config;
    config.allocation.use_classification = true;
    AllocationPipeline pipeline(config);
    ProfileSession session(pipeline);
    session.addStats(*reader);
    session.commit();
    session.addInterleave(*reader, shards);
    session.finish();

    std::vector<PredictionStats> results = replayBatched(
        *reader, {paperBaselineSpec(), pipeline.predictorSpec(entries),
                  interferenceFreeSpec()});
    for (const PredictionStats &r : results)
        std::printf("%-42s miss %s\n", r.predictor_name.c_str(),
                    percentString(r.mispredicts.ratio(), 3).c_str());
    return 0;
}

int
runConvert(const CliOptions &options)
{
    std::string in = inputPath(options, "convert");
    std::string out = options.getRequiredString("out", "");
    if (out.empty())
        bwsa_fatal("convert needs --out=<trace>");
    std::uint64_t block_records = options.getUint(
        "block-records", store::default_block_records);

    // The writer truncates --out while the reader maps --in, so an
    // in-place convert would destroy its own input.
    std::error_code ec;
    if (std::filesystem::exists(out, ec) &&
        std::filesystem::equivalent(in, out, ec))
        bwsa_fatal("convert cannot overwrite its own input: ", out);

    store::BlockTraceReader reader(in);
    std::uint64_t written =
        store::writeBlockTraceFile(out, reader, block_records);
    inform("wrote ", written, " records to ", out, " (",
           block_records, " records per block)");
    return 0;
}

int
runInfo(const CliOptions &options)
{
    std::string in = inputPath(options, "info");

    store::BlockTraceReader reader(in);
    const auto &blocks = reader.blocks();
    std::cout << "file: " << in << "\n";
    std::cout << "format: v" << store::block_trace_version << "\n";
    std::cout << "records: " << reader.recordCount() << "\n";
    std::cout << "blocks: " << blocks.size() << "\n";
    std::uint64_t first_ts =
        blocks.empty() ? 0 : blocks.front().first_timestamp;
    std::uint64_t last_ts =
        blocks.empty() ? 0 : blocks.back().last_timestamp;
    std::cout << "instructions: [" << first_ts << ", " << last_ts
              << "]\n";
    std::cout << "digest: " << std::hex << reader.digest() << std::dec
              << "\n";

    std::vector<store::BlockCheckResult> checks =
        reader.verifyBlocks();
    std::size_t bad = 0;
    for (const store::BlockCheckResult &check : checks) {
        const store::TraceBlockInfo &info = blocks[check.index];
        std::cout << "block " << check.index << ": records "
                  << info.record_count << " ts ["
                  << info.first_timestamp << ", "
                  << info.last_timestamp << "] crc ";
        if (check.ok) {
            std::cout << "ok\n";
        } else {
            std::cout << "BAD (" << check.message << ")\n";
            ++bad;
        }
    }
    if (bad) {
        std::cout << "status: corrupt (" << bad << " of "
                  << checks.size() << " blocks failed)\n";
        return 1;
    }
    std::cout << "status: ok\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    CliOptions options = CliOptions::parse(
        argc, argv,
        {"preset", "out", "in", "scale", "threshold", "entries",
         "shards", "block-records", "quiet", "verbose"});
    applyLogLevelOptions(options);
    for (const std::string &flag : CliOptions::unknownFlags(argc, argv))
        bwsa_fatal("unknown option ", flag);

    if (argc < 2)
        usage();
    std::string command = argv[1];
    if (command == "record")
        return runRecord(options);
    if (command == "analyze")
        return runAnalyze(options);
    if (command == "simulate")
        return runSimulate(options);
    if (command == "convert")
        return runConvert(options);
    if (command == "info")
        return runInfo(options);
    std::cerr << "unknown command: " << command << "\n";
    usage();
}
