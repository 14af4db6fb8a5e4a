/**
 * @file
 * Load and exactness harness for the online profiling service.
 *
 * Drives many interleaved streaming sessions against a
 * ProfileService -- in-process by default (LoopbackChannel), or
 * against a live `bwsa_serve` daemon with `--connect=SOCKET` -- and
 * proves the service exact: every session's final artifact must be
 * byte-identical to a batch ProfileSession over the same records
 * (fatal otherwise, so CI can gate on the exit code).
 *
 * Each client worker owns sessions round-robin and interleaves them
 * block by block, so the service always holds many concurrent
 * sessions per tenant with requests arriving from several tenants at
 * once.  Mid-stream snapshots (--snapshot-every) exercise
 * profile-so-far serving under load.
 *
 * Reported tables:
 *   "service latency"    p50/p99/p999 of serve.ingest.ns and
 *                        serve.snapshot.ns (the daemon-side request
 *                        histograms)
 *   "service exactness"  sessions, blocks, records, byte-identical
 *                        artifact count -- emitted last so --csv
 *                        carries the gate row
 *
 * With --phases every session opts into online phase detection
 * (phase interval = --interval) and the gate extends to the live
 * PhaseEvent stream: the events each session receives must match --
 * boundary for boundary, bit for bit -- the serial detector over the
 * same records, for any block partitioning.  Against a --connect
 * daemon the daemon's --phase-* flags must match this bench's.
 *
 * Extra flags on top of the common set:
 *   --sessions=N        total streaming sessions (default 64)
 *   --clients=N         concurrent client workers (default 8)
 *   --block-records=N   records per Append frame (default 4096)
 *   --snapshot-every=N  mid-stream snapshot every N blocks per
 *                       session (default 4; 0 = only the final one)
 *   --connect=PATH      drive a daemon on this unix socket instead of
 *                       the in-process service
 */

#include "bench_common.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include <map>

#include "exec/thread_pool.hh"
#include "obs/phase_detect.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "serve/service.hh"
#include "store/profile_artifact.hh"
#include "util/logging.hh"
#include "util/strutil.hh"

using namespace bwsa;
using namespace bwsa::bench;

namespace
{

/** Records and batch-reference artifact bytes of one workload. */
struct SessionInput
{
    std::string label;
    const std::vector<BranchRecord> *records = nullptr;
    const std::string *expected = nullptr;
    /** Serial-detector boundary events (the PhaseEvent oracle). */
    const std::vector<serve::PhaseEventInfo> *expected_events =
        nullptr;
};

/** The serial detector's boundary events over @p records. */
std::vector<serve::PhaseEventInfo>
serialPhaseEvents(const std::vector<BranchRecord> &records,
                  std::uint64_t interval,
                  const obs::PhaseDetectorConfig &config)
{
    obs::PhaseAccumulator accumulator(interval);
    for (const BranchRecord &record : records)
        accumulator.sample(record.pc, record.timestamp);
    accumulator.finish();
    obs::PhaseTimeline timeline =
        obs::detectPhases(accumulator, config);
    std::vector<serve::PhaseEventInfo> events;
    for (std::size_t i = 1; i < timeline.phases.size(); ++i)
        events.push_back({i, timeline.phases[i].start_ts,
                          timeline.phases[i - 1].start_ts,
                          timeline.phases[i].boundary_similarity});
    return events;
}

/** Batch ProfileSession over @p records, serialized. */
std::string
batchArtifactBytes(const std::vector<BranchRecord> &records)
{
    PipelineConfig config;
    config.coverage = 1.0;
    config.max_static = 0;
    AllocationPipeline pipeline(config);
    ProfileSession session(pipeline);
    MemoryTrace trace;
    for (const BranchRecord &record : records)
        trace.onBranch(record);
    trace.onEnd();
    session.addStats(trace);
    session.commit();
    session.addInterleave(trace);
    session.finish();
    store::ProfileArtifact artifact{pipeline.lastStats(),
                                    pipeline.lastSelection(),
                                    pipeline.graph()};
    return store::serializeProfileArtifact(artifact);
}

/**
 * Channel decorator observing round-trip latency into the serve.*
 * histograms.  Used only for socket channels: the daemon's own
 * registry is in another process, so the client-observed round-trip
 * (request + service + socket) is what this side can report.  The
 * in-process path must NOT be wrapped -- the service already observes
 * into the same global registry.
 */
class TimingChannel : public serve::ServeChannel
{
  public:
    explicit TimingChannel(std::unique_ptr<serve::ServeChannel> inner)
        : _inner(std::move(inner))
    {
        auto &registry = obs::MetricsRegistry::global();
        _ingest = registry.histogram(
            "serve.ingest.ns",
            obs::MetricsRegistry::latencyBoundsNs());
        _snapshot = registry.histogram(
            "serve.snapshot.ns",
            obs::MetricsRegistry::latencyBoundsNs());
    }

    bool
    roundTrip(const serve::Frame &request, serve::Frame &response,
              std::string &error) override
    {
        auto start = std::chrono::steady_clock::now();
        bool ok = _inner->roundTrip(request, response, error);
        auto ns = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - start)
                .count());
        if (request.type == serve::FrameType::Append)
            _ingest.observe(ns);
        else if (request.type == serve::FrameType::Snapshot ||
                 request.type == serve::FrameType::Finish)
            _snapshot.observe(ns);
        return ok;
    }

    /** Pushed frames buffer in the wrapped channel, not here. */
    std::vector<serve::Frame>
    drainEvents() override
    {
        return _inner->drainEvents();
    }

  private:
    std::unique_ptr<serve::ServeChannel> _inner;
    obs::HistogramMetric _ingest;
    obs::HistogramMetric _snapshot;
};

double
quantileUs(const obs::MetricsSnapshot &snapshot,
           const std::string &name, double q)
{
    const obs::SeriesSnapshot *series = snapshot.find(name);
    return series ? series->histogram.quantile(q) / 1000.0 : 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    CliOptions cli;
    BenchOptions options = parseBenchOptions(
        argc, argv, "bench_serve_load", true,
        {{"sessions", "total streaming sessions (default 64)"},
         {"clients", "concurrent client workers (default 8)"},
         {"block-records", "records per Append frame (default 4096)"},
         {"snapshot-every",
          "mid-stream snapshot every N blocks (default 4; 0 = off)"},
         {"connect",
          "unix socket of a live bwsa_serve daemon (default: "
          "in-process service)"},
         {"shutdown",
          "send the daemon a Shutdown frame after the run "
          "(--connect mode)"}},
        &cli);

    const std::uint64_t sessions = cli.getUint("sessions", 64);
    const unsigned clients =
        static_cast<unsigned>(cli.getUint("clients", 8));
    const std::uint64_t block_records =
        cli.getUint("block-records", 4096);
    const std::uint64_t snapshot_every =
        cli.getUint("snapshot-every", 4);
    const std::string connect_path =
        cli.getRequiredString("connect", "");
    const bool shutdown_daemon = cli.getBool("shutdown", false);
    if (shutdown_daemon && connect_path.empty())
        bwsa_fatal("--shutdown needs --connect");
    if (sessions == 0 || clients == 0 || block_records == 0)
        bwsa_fatal("--sessions, --clients and --block-records must "
                   "be >= 1");

    // --- Materialize one trace per benchmark row, and its batch
    // reference artifact (the byte-identity oracle).
    std::vector<BenchmarkRun> runs = defaultRuns(options);
    if (runs.empty())
        bwsa_fatal("no benchmarks selected");
    std::vector<std::unique_ptr<MemoryTrace>> traces;
    std::vector<std::string> expected;
    std::vector<std::vector<serve::PhaseEventInfo>> expected_events;
    std::vector<std::string> labels;
    for (const BenchmarkRun &run : runs) {
        RowScope row_scope;
        ResolvedWorkload w =
            resolveWorkload(run.preset, run.input_label, options.scale);
        auto trace = std::make_unique<MemoryTrace>();
        w.source()->replay(*trace);
        expected.push_back(batchArtifactBytes(trace->records()));
        expected_events.push_back(
            options.phases
                ? serialPhaseEvents(trace->records(), options.interval,
                                    phaseDetectorConfig(options))
                : std::vector<serve::PhaseEventInfo>());
        traces.push_back(std::move(trace));
        labels.push_back(run.display);
    }

    // Session i profiles workload i mod |runs|.
    std::vector<SessionInput> inputs(sessions);
    for (std::uint64_t i = 0; i < sessions; ++i) {
        std::size_t w = static_cast<std::size_t>(i % runs.size());
        inputs[i] = {labels[w], &traces[w]->records(), &expected[w],
                     &expected_events[w]};
    }

    // --- The service under test: in-process unless --connect.
    std::unique_ptr<serve::ProfileService> local_service;
    if (connect_path.empty()) {
        serve::ServiceConfig service_config;
        service_config.phase_config = phaseDetectorConfig(options);
        local_service = std::make_unique<serve::ProfileService>(
            std::move(service_config));
    }

    std::atomic<std::uint64_t> mismatches{0};
    std::atomic<std::uint64_t> failures{0};
    std::atomic<std::uint64_t> blocks_sent{0};
    std::atomic<std::uint64_t> records_sent{0};
    std::atomic<std::uint64_t> phase_events_seen{0};
    std::atomic<std::uint64_t> phase_mismatches{0};

    {
        BWSA_SPAN("serve.load");
        exec::ThreadPool pool(clients);
        for (unsigned c = 0; c < clients; ++c) {
            pool.submit([&, c](unsigned) {
                std::unique_ptr<serve::ServeChannel> channel;
                if (local_service) {
                    channel = std::make_unique<serve::LoopbackChannel>(
                        *local_service, c);
                } else {
                    std::string error;
                    auto fd_channel =
                        serve::FdChannel::connect(connect_path, error);
                    if (!fd_channel)
                        bwsa_fatal("cannot reach daemon: ", error);
                    channel = std::make_unique<TimingChannel>(
                        std::move(fd_channel));
                }
                serve::ServeClient client(*channel);
                if (!client.hello())
                    bwsa_fatal("handshake failed: ",
                               client.lastError());

                // This worker's sessions, driven interleaved: open
                // all of them, then deal blocks round-robin so the
                // service juggles every session at once.
                std::vector<std::uint64_t> mine;
                for (std::uint64_t s = c; s < sessions; s += clients)
                    mine.push_back(s);
                std::vector<std::size_t> offset(mine.size(), 0);
                std::vector<std::uint64_t> blocks(mine.size(), 0);
                for (std::uint64_t id : mine)
                    if (!client.begin(id, 0,
                                      options.phases ? options.interval
                                                     : 0))
                        bwsa_fatal("begin failed: ",
                                   client.lastError());

                // Live PhaseEvent frames, bucketed per session as
                // they arrive (this worker owns all its sessions, so
                // no cross-thread ordering is in play).
                std::map<std::uint64_t,
                         std::vector<serve::PhaseEventInfo>>
                    live_events;
                auto drainLiveEvents = [&] {
                    for (auto &[sid, info] :
                         client.takePhaseEvents()) {
                        live_events[sid].push_back(info);
                        phase_events_seen.fetch_add(1);
                    }
                };

                bool progress = true;
                while (progress) {
                    progress = false;
                    for (std::size_t k = 0; k < mine.size(); ++k) {
                        const std::vector<BranchRecord> &records =
                            *inputs[mine[k]].records;
                        if (offset[k] >= records.size())
                            continue;
                        std::size_t n = std::min(
                            static_cast<std::size_t>(block_records),
                            records.size() - offset[k]);
                        if (!client.append(mine[k],
                                           records.data() + offset[k],
                                           n))
                            bwsa_fatal("append failed: ",
                                       client.lastError());
                        offset[k] += n;
                        ++blocks[k];
                        blocks_sent.fetch_add(1);
                        records_sent.fetch_add(n);
                        progress = true;
                        drainLiveEvents();
                        if (snapshot_every != 0 &&
                            blocks[k] % snapshot_every == 0 &&
                            !client.snapshotBytes(mine[k]))
                            bwsa_fatal("snapshot failed: ",
                                       client.lastError());
                    }
                }

                for (std::size_t k = 0; k < mine.size(); ++k) {
                    std::optional<std::string> bytes =
                        client.finishBytes(mine[k]);
                    // Finish flushes the tail window, so its response
                    // may carry the trace's final boundary.
                    drainLiveEvents();
                    if (!bytes) {
                        failures.fetch_add(1);
                        warn("finish failed for session ", mine[k],
                             ": ", client.lastError());
                        continue;
                    }
                    if (*bytes != *inputs[mine[k]].expected) {
                        mismatches.fetch_add(1);
                        warn("session ", mine[k], " (",
                             inputs[mine[k]].label,
                             "): streamed artifact differs from "
                             "batch");
                    }
                    if (options.phases &&
                        live_events[mine[k]] !=
                            *inputs[mine[k]].expected_events) {
                        phase_mismatches.fetch_add(1);
                        warn("session ", mine[k], " (",
                             inputs[mine[k]].label, "): received ",
                             live_events[mine[k]].size(),
                             " phase events, serial detector says ",
                             inputs[mine[k]].expected_events->size());
                    }
                }
            });
        }
        pool.wait();
    }

    if (shutdown_daemon) {
        std::string error;
        auto channel = serve::FdChannel::connect(connect_path, error);
        if (!channel)
            bwsa_fatal("cannot reach daemon for shutdown: ", error);
        serve::ServeClient client(*channel);
        if (!client.shutdown())
            bwsa_fatal("shutdown failed: ", client.lastError());
    }

    // --- Latency distributions: service-side in loopback mode,
    // client-observed round-trips in --connect mode (TimingChannel).
    obs::MetricsSnapshot snapshot =
        obs::MetricsRegistry::global().snapshot();
    TextTable latency({"series", "count", "mean us", "p50 us",
                       "p99 us", "p999 us"});
    for (const std::string &name :
         {std::string("serve.ingest.ns"),
          std::string("serve.snapshot.ns")}) {
        const obs::SeriesSnapshot *series = snapshot.find(name);
        std::uint64_t count = series ? series->histogram.count : 0;
        latency.addRow(
            {name, withCommas(count),
             fixedString(series ? series->histogram.mean() / 1000.0
                                : 0.0,
                         2),
             fixedString(quantileUs(snapshot, name, 0.5), 2),
             fixedString(quantileUs(snapshot, name, 0.99), 2),
             fixedString(quantileUs(snapshot, name, 0.999), 2)});
    }
    emitTable("service latency", latency, options);

    TextTable exactness({"sessions", "clients", "blocks", "records",
                         "mismatches", "failures", "phase events",
                         "phase mismatches"});
    exactness.addRow({withCommas(sessions),
                      withCommas(std::uint64_t(clients)),
                      withCommas(blocks_sent.load()),
                      withCommas(records_sent.load()),
                      withCommas(mismatches.load()),
                      withCommas(failures.load()),
                      withCommas(phase_events_seen.load()),
                      withCommas(phase_mismatches.load())});
    emitTable("service exactness", exactness, options);

    // With --phases the multi-phase workloads must actually raise
    // live events; a silent zero means the push path is broken even
    // if the per-session comparisons were vacuously equal.
    std::uint64_t events_expected = 0;
    for (std::uint64_t i = 0; i < sessions; ++i)
        events_expected += inputs[i].expected_events->size();

    int rc = finishBench(options);
    if (mismatches.load() != 0 || failures.load() != 0)
        bwsa_fatal("service exactness violated: ",
                   mismatches.load(), " mismatching artifacts, ",
                   failures.load(), " failed sessions");
    if (phase_mismatches.load() != 0)
        bwsa_fatal("phase-event exactness violated: ",
                   phase_mismatches.load(),
                   " sessions diverged from the serial detector");
    if (options.phases && events_expected > 0 &&
        phase_events_seen.load() == 0)
        bwsa_fatal("no live phase events observed (expected ",
                   events_expected, ")");
    return rc;
}
