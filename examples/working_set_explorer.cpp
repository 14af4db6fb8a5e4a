/**
 * @file
 * Interactive-style exploration of one benchmark's branch working
 * sets: Table-2 statistics, the size distribution, the hottest sets
 * with their member branches and bias classes, and how much of the
 * dynamic stream each set accounts for.
 *
 * Usage:
 *   ./working_set_explorer [--preset=m88ksim] [--scale=0.5]
 *                          [--threshold=100] [--top=5] [--shards=4]
 */

#include <algorithm>
#include <cstdio>

#include "core/classification.hh"
#include "core/working_set.hh"
#include "profile/shard.hh"
#include "report/table.hh"
#include "util/cli.hh"
#include "util/logging.hh"
#include "util/stats.hh"
#include "util/strutil.hh"
#include "workload/presets.hh"

using namespace bwsa;

int
main(int argc, char **argv)
{
    CliOptions cli = CliOptions::parse(
        argc, argv,
        {"preset", "scale", "threshold", "top", "shards", "quiet",
         "verbose"});
    std::vector<std::string> unknown =
        CliOptions::unknownFlags(argc, argv);
    if (!unknown.empty())
        bwsa_fatal("unknown option '", unknown[0],
                   "' (supported: --preset --scale --threshold --top "
                   "--shards --quiet --verbose)");
    applyLogLevelOptions(cli);
    std::string preset = cli.getString("preset", "m88ksim");
    double scale = cli.getDouble("scale", 0.5);
    std::uint64_t threshold = cli.getUint("threshold", 100);
    std::size_t top = cli.getUint("top", 5);
    unsigned shards =
        static_cast<unsigned>(cli.getUint("shards", 1));
    if (shards == 0)
        bwsa_fatal("--shards must be >= 1");

    Workload w = makeWorkload(preset, "", scale);
    WorkloadTraceSource source = w.source();

    ShardConfig shard_config;
    shard_config.shards = shards;
    ConflictGraph graph = profileTrace(source, shard_config);
    ConflictGraph pruned = graph.pruned(threshold);
    std::printf("%s: %zu static branches, %s dynamic; conflict graph "
                "%zu edges (%zu above threshold %llu)\n",
                preset.c_str(), graph.nodeCount(),
                withCommas(graph.totalExecutions()).c_str(),
                graph.edgeCount(), pruned.edgeCount(),
                static_cast<unsigned long long>(threshold));

    WorkingSetResult sets =
        findWorkingSets(pruned, WorkingSetDefinition::SeededClique);
    WorkingSetStats stats = computeWorkingSetStats(pruned, sets);
    std::printf("\nworking sets: %zu total, avg static %.1f, avg "
                "dynamic %.1f, max %zu%s\n",
                stats.total_sets, stats.avg_static_size,
                stats.avg_dynamic_size, stats.max_size,
                sets.truncated ? " (truncated)" : "");

    // Size distribution.
    Histogram sizes;
    for (const WorkingSet &set : sets.sets)
        sizes.add(static_cast<std::int64_t>(set.size()));
    std::printf("set-size percentiles: p50=%lld p90=%lld p99=%lld\n",
                static_cast<long long>(sizes.percentile(0.5)),
                static_cast<long long>(sizes.percentile(0.9)),
                static_cast<long long>(sizes.percentile(0.99)));

    // Hottest sets by member execution mass.
    std::vector<std::pair<std::uint64_t, const WorkingSet *>> ranked;
    for (const WorkingSet &set : sets.sets) {
        std::uint64_t mass = 0;
        for (NodeId id : set)
            mass += pruned.node(id).executed;
        ranked.emplace_back(mass, &set);
    }
    std::sort(ranked.begin(), ranked.end(),
              [](const auto &a, const auto &b) {
                  return a.first > b.first;
              });

    BranchClassifier classifier(0.99);
    TextTable table({"rank", "branches", "share of dynamic",
                     "biased T", "biased NT", "mixed"});
    for (std::size_t i = 0; i < std::min(top, ranked.size()); ++i) {
        const WorkingSet &set = *ranked[i].second;
        ClassCounts counts;
        for (NodeId id : set) {
            switch (classifier.classify(pruned.node(id))) {
              case BranchClass::BiasedTaken:
                ++counts.biased_taken;
                break;
              case BranchClass::BiasedNotTaken:
                ++counts.biased_not_taken;
                break;
              case BranchClass::Mixed:
                ++counts.mixed;
                break;
            }
        }
        double share = static_cast<double>(ranked[i].first) /
                       static_cast<double>(graph.totalExecutions());
        table.addRow({std::to_string(i + 1),
                      std::to_string(set.size()),
                      percentString(share, 1),
                      std::to_string(counts.biased_taken),
                      std::to_string(counts.biased_not_taken),
                      std::to_string(counts.mixed)});
    }
    std::printf("\nhottest working sets:\n%s", table.render().c_str());

    // Whole-program classification breakdown (Section 5.2's lever).
    ClassCounts all = countClasses(classifier.classifyGraph(graph));
    std::printf("\nclassification at 99%% bias: %zu biased-taken, "
                "%zu biased-not-taken, %zu mixed (%.1f%% of static "
                "branches classified)\n",
                all.biased_taken, all.biased_not_taken, all.mixed,
                100.0 *
                    static_cast<double>(all.total() - all.mixed) /
                    static_cast<double>(all.total()));
    return 0;
}
