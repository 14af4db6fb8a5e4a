/**
 * @file
 * perfbench measurement binary: sets one workload up several times,
 * runs its timed region until the time budget is spent, and prints
 * one JSON line of raw measurements that run.py reduces to metrics.
 *
 *   perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
 *             --work-dir=DIR [--expected=FILE]
 *
 * With --trace=1 every second pass records per-layer spans; the untraced
 * passes in between give the tracing overhead.
 */

#include <sys/resource.h>

#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "util/cli.hh"
#include "util/logging.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

/**
 * Measured set-up repetitions; run.py reports their median.  A first,
 * unmeasured set-up warms files, page cache and allocator.
 */
constexpr std::size_t setup_reps = 5;

obs::JsonValue
loadJson(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        bwsa_fatal("cannot read ", path);
    std::stringstream text;
    text << in.rdbuf();
    obs::JsonValue value;
    std::string error;
    if (!obs::JsonValue::parse(text.str(), value, &error))
        bwsa_fatal(path, ": ", error);
    return value;
}

obs::JsonValue
toJson(const LayerSums &sums)
{
    obs::JsonValue out = obs::JsonValue::object();
    for (const auto &[name, value] : sums)
        out[name] = value;
    return out;
}

double
peakRssMib()
{
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

} // namespace

int
main(int argc, char **argv)
{
    const bwsa::CliOptions cli = bwsa::CliOptions::parse(
        argc, argv,
        {"workload", "seed", "seconds", "trace", "work-dir", "expected"});
    for (const std::string &flag :
         bwsa::CliOptions::unknownFlags(argc, argv))
        bwsa_fatal("unknown flag ", flag);
    const std::string name = cli.getRequiredString("workload", "");
    const double seconds = cli.getDouble("seconds", 10.0);
    const bool trace = cli.getUint("trace", 0) != 0;

    WorkloadEnv env;
    env.seed = cli.getUint("seed", 1);
    env.work_dir = cli.getRequiredString("work-dir", "");
    if (env.work_dir.empty())
        bwsa_fatal("--work-dir is required");
    std::filesystem::create_directories(env.work_dir);
    const std::string expected = cli.getRequiredString("expected", "");
    if (!expected.empty())
        env.expected = loadJson(expected);

    std::unique_ptr<Workload> workload;
    if (name == "fig3_serial")
        workload = makeFig3Serial(std::move(env));
    else if (name == "table2_sharded")
        workload = makeTable2Sharded(std::move(env));
    else if (name == "serve_stream")
        workload = makeServeStream(std::move(env));
    else
        bwsa_fatal("unknown workload '", name,
                   "' (fig3_serial, table2_sharded, serve_stream)");

    workload->setup(nullptr);
    LayerSums setup_sums;
    std::vector<double> setup_s;
    while (setup_s.size() < setup_reps) {
        const auto start = Clock::now();
        workload->setup(trace ? &setup_sums : nullptr);
        setup_s.push_back(secondsSince(start));
    }

    LayerSums sums;
    std::vector<double> untraced_s, traced_s;
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    for (std::size_t i = 0;; ++i) {
        const bool traced = trace && i % 2 == 1;
        const double wall = workload->runPass(traced ? &sums : nullptr);
        (traced ? traced_s : untraced_s).push_back(wall);
        if (Clock::now() >= deadline && workload->enoughSamples() &&
            (!trace || !traced_s.empty()))
            break;
    }

    obs::JsonValue raw = obs::JsonValue::object();
    raw["concurrency"] = 1;
    workload->report(raw);
    raw["workload"] = name;
    raw["setup_s"] = jsonArray(setup_s);
    raw["setup_layers"] = toJson(setup_sums);
    raw["pass_s"] = jsonArray(untraced_s);
    raw["traced_pass_s"] = jsonArray(traced_s);
    raw["layers"] = toJson(sums);
    raw["attempted"] = workload->checks.attempted;
    raw["failed"] = workload->checks.failed;
    raw["peak_rss_mb"] = peakRssMib();
    std::cout << raw.dumpString(0) << std::endl;
    return 0;
}
