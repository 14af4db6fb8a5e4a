/**
 * @file
 * End-to-end checks for the bench harness: parallel-sweep determinism
 * (Figure 3/4 and Table 2 tables byte-identical across thread and
 * shard counts), the --quiet/--progress CLI contract, and the
 * --timeseries/--interference observability paths (working-set series
 * identical across shard counts).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench_common.hh"
#include "obs/progress.hh"
#include "obs/run_report.hh"
#include "obs/timeseries.hh"
#include "util/logging.hh"

using namespace bwsa;
using namespace bwsa::bench;

namespace
{

BenchOptions
smallOptions(unsigned threads)
{
    BenchOptions options;
    options.scale = 0.02;
    options.benchmarks = {"compress", "li", "pgp"};
    options.threads = threads;
    return options;
}

} // namespace

TEST(BenchSweep, Fig3TableIdenticalAcrossThreadCounts)
{
    std::string serial =
        buildAllocationTable(smallOptions(1), false).render();
    std::string parallel =
        buildAllocationTable(smallOptions(4), false).render();
    EXPECT_EQ(parallel, serial);
    // Sanity: the table actually has the benchmark rows.
    EXPECT_NE(serial.find("compress"), std::string::npos);
    EXPECT_NE(serial.find("average"), std::string::npos);
}

TEST(BenchSweep, Fig4TableIdenticalAcrossThreadCounts)
{
    std::string serial =
        buildAllocationTable(smallOptions(1), true).render();
    std::string parallel =
        buildAllocationTable(smallOptions(3), true).render();
    EXPECT_EQ(parallel, serial);
}

TEST(BenchSweep, Table2IdenticalAcrossShardAndThreadCounts)
{
    // The Table 2 acceptance criterion for the sharded profiler: the
    // working-set table from a sharded multi-threaded run must be
    // byte-identical to the serial single-shard run, on every preset
    // in the sweep.
    std::string serial = buildWorkingSetTable(smallOptions(1)).render();

    BenchOptions sharded_options = smallOptions(4);
    sharded_options.shards = 4;
    std::string sharded =
        buildWorkingSetTable(sharded_options).render();
    EXPECT_EQ(sharded, serial);

    BenchOptions uneven_options = smallOptions(2);
    uneven_options.shards = 7;
    EXPECT_EQ(buildWorkingSetTable(uneven_options).render(), serial);

    EXPECT_NE(serial.find("compress"), std::string::npos);
}

TEST(BenchSweep, RepeatedParallelRunsAreStable)
{
    // Two parallel runs with different worker counts agree too: the
    // result depends only on the inputs, never on the schedule.
    std::string a = buildAllocationTable(smallOptions(2), false).render();
    std::string b = buildAllocationTable(smallOptions(4), false).render();
    EXPECT_EQ(a, b);
}

TEST(BenchSweep, InterferenceAndTimeseriesPopulateReport)
{
    // The --timeseries --interference acceptance path: a Figure 3 run
    // produces the destructive-aliasing table, per-benchmark windowed
    // series, and a populated "interference" report section.
    auto &registry = obs::TimeSeriesRegistry::global();
    registry.clear();
    registry.configureDefaults(4096);
    registry.setEnabled(true);
    auto &report = obs::RunReport::global();
    report.begin("test_bench_sweep");

    BenchOptions options = smallOptions(2);
    options.benchmarks = {"compress", "li"};
    options.timeseries = true;
    options.interval = 4096;
    options.interference = true;
    AllocationTables tables = buildAllocationTables(options, false);

    ASSERT_TRUE(tables.has_aliasing);
    std::string aliasing = tables.aliasing.render();
    EXPECT_NE(aliasing.find("compress"), std::string::npos);
    EXPECT_NE(aliasing.find("li"), std::string::npos);

    // The interleave pass published the working-set series under each
    // benchmark's scope, and the simulator a miss-rate series per
    // predictor.
    EXPECT_NE(registry.find("compress/working_set/size"), nullptr);
    EXPECT_NE(registry.find("li/working_set/jaccard"), nullptr);
    obs::JsonValue series = registry.toJson();
    bool found_miss_rate = false;
    for (std::size_t i = 0; i < series.size(); ++i) {
        const std::string &name =
            series.at(i).find("name")->asString();
        if (name.rfind("compress/", 0) == 0 &&
            name.size() >= 10 &&
            name.compare(name.size() - 10, 10, "/miss_rate") == 0)
            found_miss_rate = true;
    }
    EXPECT_TRUE(found_miss_rate);

    // The v2 report carries both new sections, populated: one
    // interference entry per probed predictor per benchmark.
    obs::JsonValue doc = report.build();
    ASSERT_NE(doc.find("timeseries"), nullptr);
    EXPECT_GT(doc.find("timeseries")->size(), 0u);
    ASSERT_NE(doc.find("interference"), nullptr);
    EXPECT_EQ(doc.find("interference")->size(), 4u);
    const obs::JsonValue &entry = doc.find("interference")->at(0);
    EXPECT_NE(entry.find("destructive"), nullptr);
    EXPECT_NE(entry.find("top_entries"), nullptr);

    // The working-set series are a view of the cell's folded phase
    // accumulator, so a sharded run publishes the same whole-trace
    // series point for point, and the profiler publishes no
    // per-shard series at all.
    const std::vector<std::string> working_set_names = {
        "compress/working_set/size", "compress/working_set/jaccard",
        "li/working_set/size", "li/working_set/jaccard"};
    std::vector<std::string> serial_series;
    for (const std::string &name : working_set_names) {
        const obs::TimeSeries *serial = registry.find(name);
        ASSERT_NE(serial, nullptr) << name;
        serial_series.push_back(serial->toJson().dumpString());
    }

    registry.clear();
    options.shards = 3;
    buildAllocationTables(options, false);
    for (std::size_t i = 0; i < working_set_names.size(); ++i) {
        const obs::TimeSeries *sharded =
            registry.find(working_set_names[i]);
        ASSERT_NE(sharded, nullptr) << working_set_names[i];
        EXPECT_GT(sharded->points().size(), 1u);
        EXPECT_EQ(sharded->toJson().dumpString(), serial_series[i])
            << working_set_names[i];
    }
    obs::JsonValue sharded_series = registry.toJson();
    for (std::size_t i = 0; i < sharded_series.size(); ++i) {
        const std::string &name =
            sharded_series.at(i).find("name")->asString();
        EXPECT_EQ(name.find("/shard"), std::string::npos) << name;
    }

    registry.setEnabled(false);
    registry.clear();
}

// --- CLI contract ---------------------------------------------------

namespace
{

/** parseBenchOptions against a throwaway argv. */
BenchOptions
parseArgs(std::vector<std::string> args)
{
    std::vector<char *> argv;
    argv.reserve(args.size());
    for (std::string &arg : args)
        argv.push_back(arg.data());
    int argc = static_cast<int>(argv.size());
    return parseBenchOptions(argc, argv.data(), "test_bench");
}

} // namespace

TEST(BenchCli, QuietSuppressesProgressHeartbeatEntirely)
{
    // --quiet wins over --progress: the heartbeat thread never
    // starts, so neither beats nor the final "progress: done" flush
    // reach stderr.
    LogLevel saved = logLevel();
    testing::internal::CaptureStderr();
    BenchOptions options =
        parseArgs({"bench", "--quiet", "--progress=0.1"});
    EXPECT_EQ(logLevel(), LogLevel::Quiet);
    EXPECT_DOUBLE_EQ(options.progress_sec, 0.1);
    EXPECT_FALSE(obs::ProgressMeter::global().running());
    finishBench(options);
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");

    // Without --quiet the same spelling does start the heartbeat and
    // flushes on stop -- the contrast that makes the test meaningful.
    setLogLevel(LogLevel::Normal);
    testing::internal::CaptureStderr();
    options = parseArgs({"bench", "--progress=0.1"});
    EXPECT_TRUE(obs::ProgressMeter::global().running());
    finishBench(options);
    EXPECT_FALSE(obs::ProgressMeter::global().running());
    EXPECT_NE(testing::internal::GetCapturedStderr().find(
                  "progress: done"),
              std::string::npos);
    setLogLevel(saved);
}
