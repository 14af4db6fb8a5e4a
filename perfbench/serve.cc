/**
 * @file
 * serve_stream: an in-process ProfileService driven by a closed loop
 * of two clients over LoopbackChannel.
 *
 * Each client waits for every reply while it interleaves its sessions
 * block by block, snapshots each session every few blocks, and
 * finishes them all; online phase detection is on.  Every request is
 * timed on the client side, so ingest and snapshot latencies are exact
 * quantiles of raw samples.  Every finish is compared byte for byte
 * with a batch ProfileSession artifact, and every session's live
 * PhaseEvents with the serial detector, both built in set-up.
 */

#include "workloads.hh"

#include <map>
#include <thread>

#include "core/pipeline.hh"
#include "obs/phase_detect.hh"
#include "serve/client.hh"
#include "serve/service.hh"
#include "store/block_trace.hh"
#include "store/profile_artifact.hh"

namespace perfbench
{

namespace
{

/** One session per preset and client; small static populations. */
const std::vector<std::string> serve_presets{
    "compress", "li", "ijpeg", "m88ksim", "perl", "pgp", "tex"};

constexpr double serve_scale = 0.1;

/** Seed-derived inputs in each session's trace. */
constexpr unsigned serve_inputs = 8;

/** Closed-loop client count (each client is one thread). */
constexpr unsigned serve_clients = 2;

constexpr std::size_t block_records = 4096;

/**
 * Each session is snapshotted after every this many of its blocks:
 * bench_serve_load's default traffic mix at the same block size.
 */
constexpr std::uint64_t snapshot_every = 4;

/** Phase-detector window width, in retired instructions. */
constexpr std::uint64_t phase_interval = 16384;

/** Quantile floors: ten samples beyond p99 and beyond p90. */
constexpr std::size_t min_append_samples = 1000;
constexpr std::size_t min_snapshot_samples = 100;

using PhaseEvents = std::vector<bwsa::serve::PhaseEventInfo>;

/** What one client thread measured and checked in one pass. */
struct ClientTally
{
    std::vector<double> append_ms;
    std::vector<double> snapshot_ms;
    double append_s = 0.0;
    double snapshot_s = 0.0;
    double other_s = 0.0; ///< hello, begin and finish round trips
    std::uint64_t records = 0;
    std::uint64_t snapshot_bytes = 0;
    std::uint64_t finishes = 0;
    std::uint64_t phase_events = 0;
    Checks checks;
    std::map<std::uint64_t, std::string> finished; ///< session -> bytes
};

class ServeStream : public Workload
{
  public:
    explicit ServeStream(WorkloadEnv env) : _env(std::move(env)) {}

    void
    setup(LayerSums *sums) override
    {
        _traces.clear();
        _expected.clear();
        _expected_events.clear();
        for (std::size_t i = 0; i < serve_presets.size(); ++i) {
            auto trace = std::make_unique<bwsa::MemoryTrace>();
            {
                // The clients stream recorded traces, so the input
                // goes through a v2 container and back.
                Span span(sums, "store.write_s");
                std::string path =
                    _env.work_dir + "/" + serve_presets[i] + ".bwt";
                writeInputsTrace(path, serve_presets[i], serve_scale,
                                 _env.seed, i, serve_inputs);
                bwsa::store::openTraceReader(path)->replay(*trace);
            }
            Span span(sums, "core.oracle_s");
            _expected.push_back(batchArtifactBytes(*trace));
            _expected_events.push_back(serialPhaseEvents(*trace));
            _traces.push_back(std::move(trace));
        }
    }

    double
    runPass(LayerSums *sums) override
    {
        bwsa::serve::ProfileService service{bwsa::serve::ServiceConfig()};
        std::vector<ClientTally> tallies(serve_clients);
        const auto start = Clock::now();
        {
            std::vector<std::jthread> clients; // joined at scope end
            for (unsigned c = 0; c < serve_clients; ++c)
                clients.emplace_back(
                    [&, c] { runClient(service, c, tallies[c]); });
        }
        const double wall = secondsSince(start);

        for (ClientTally &tally : tallies) {
            checks.attempted += tally.checks.attempted;
            checks.failed += tally.checks.failed;
            _append_ms.insert(_append_ms.end(), tally.append_ms.begin(),
                              tally.append_ms.end());
            _snapshot_ms.insert(_snapshot_ms.end(),
                                tally.snapshot_ms.begin(),
                                tally.snapshot_ms.end());
            for (auto &[session, bytes] : tally.finished)
                _finished[session] = std::move(bytes);
            addCount(sums, "serve.append_busy_s", tally.append_s);
            addCount(sums, "serve.snapshot_busy_s", tally.snapshot_s);
            addCount(sums, "serve.other_busy_s", tally.other_s);
            addCount(sums, "serve.records",
                     static_cast<double>(tally.records));
            addCount(sums, "serve.snapshot_bytes",
                     static_cast<double>(tally.snapshot_bytes));
            addCount(sums, "serve.finish_n",
                     static_cast<double>(tally.finishes));
            addCount(sums, "serve.failed_n",
                     static_cast<double>(tally.checks.failed));
            addCount(sums, "serve.phase_events",
                     static_cast<double>(tally.phase_events));
        }
        return wall;
    }

    bool
    enoughSamples() const override
    {
        return _append_ms.size() >= min_append_samples &&
               _snapshot_ms.size() >= min_snapshot_samples;
    }

    void
    report(obs::JsonValue &raw) override
    {
        // The profile a user gets back from the service, put to use:
        // colour each finished graph and replay its trace.
        double pct_sum = 0.0;
        for (std::size_t i = 0; i < _traces.size(); ++i) {
            bwsa::store::ProfileArtifact artifact;
            bool parsed = bwsa::store::parseProfileArtifact(
                              _finished[i], artifact) ==
                          bwsa::store::ArtifactParseStatus::Ok;
            LaneMisses misses =
                parsed ? alloc1024Misses(artifact.graph, *_traces[i])
                       : LaneMisses{};
            checks.record(parsed &&
                          misses.executed == _traces[i]->size());
            if (misses.executed)
                pct_sum += 100.0 *
                           static_cast<double>(misses.mispredicted) /
                           static_cast<double>(misses.executed);
        }
        raw["miss_pct_alloc1024"] =
            pct_sum / static_cast<double>(_traces.size());
        raw["concurrency"] = serve_clients;
        raw["append_ms"] = jsonArray(_append_ms);
        raw["snapshot_ms"] = jsonArray(_snapshot_ms);
    }

  private:
    /** Batch ProfileSession over @p trace, serialized (the oracle). */
    static std::string
    batchArtifactBytes(const bwsa::MemoryTrace &trace)
    {
        bwsa::PipelineConfig config;
        config.coverage = 1.0;
        bwsa::AllocationPipeline pipeline(config);
        {
            bwsa::ProfileSession session(pipeline);
            session.addStats(trace);
            session.commit();
            session.addInterleave(trace);
            session.finish();
        }
        bwsa::store::ProfileArtifact artifact{pipeline.lastStats(),
                                              pipeline.lastSelection(),
                                              pipeline.graph()};
        return bwsa::store::serializeProfileArtifact(artifact);
    }

    /** The serial detector's boundary events over @p trace. */
    static PhaseEvents
    serialPhaseEvents(const bwsa::MemoryTrace &trace)
    {
        obs::PhaseAccumulator accumulator(phase_interval);
        for (const bwsa::BranchRecord &record : trace.records())
            accumulator.sample(record.pc, record.timestamp);
        accumulator.finish();
        obs::PhaseTimeline timeline = obs::detectPhases(accumulator);
        PhaseEvents events;
        for (std::size_t i = 1; i < timeline.phases.size(); ++i)
            events.push_back({i, timeline.phases[i].start_ts,
                              timeline.phases[i - 1].start_ts,
                              timeline.phases[i].boundary_similarity});
        return events;
    }

    /** One closed-loop client, tenant @p c of the service. */
    void
    runClient(bwsa::serve::ProfileService &service, unsigned c,
              ClientTally &tally) const
    {
        bwsa::serve::LoopbackChannel channel(service, c);
        bwsa::serve::ServeClient client(channel);
        auto timed = [](double &busy, auto &&call) {
            const auto start = Clock::now();
            bool ok = call();
            const double s = secondsSince(start);
            busy += s;
            return std::make_pair(ok, s);
        };

        tally.checks.record(
            timed(tally.other_s, [&] { return client.hello(); }).first);
        // Every client streams every trace, session id = trace index
        // (ids are per tenant), so the clients carry equal work and
        // neither idles while the other finishes.
        const std::size_t sessions = _traces.size();
        for (std::uint64_t id = 0; id < sessions; ++id)
            tally.checks.record(timed(tally.other_s, [&] {
                                    return client.begin(id, 0,
                                                        phase_interval);
                                }).first);

        std::map<std::uint64_t, PhaseEvents> live;
        auto drainEvents = [&] {
            for (auto &[session, info] : client.takePhaseEvents()) {
                live[session].push_back(info);
                ++tally.phase_events;
            }
        };

        std::vector<std::size_t> offset(sessions, 0);
        std::vector<std::uint64_t> blocks(sessions, 0);
        for (bool progress = true; progress;) {
            progress = false;
            for (std::uint64_t id = 0; id < sessions; ++id) {
                const std::vector<bwsa::BranchRecord> &records =
                    _traces[id]->records();
                if (offset[id] >= records.size())
                    continue;
                progress = true;
                std::size_t n =
                    std::min(block_records, records.size() - offset[id]);
                auto [ok, s] = timed(tally.append_s, [&] {
                    return client.append(id, records.data() + offset[id],
                                         n);
                });
                tally.checks.record(ok);
                tally.append_ms.push_back(s * 1e3);
                tally.records += n;
                offset[id] += n;
                drainEvents();
                if (++blocks[id] % snapshot_every != 0)
                    continue;
                std::optional<std::string> bytes;
                auto [snap_ok, snap_s] = timed(tally.snapshot_s, [&] {
                    bytes = client.snapshotBytes(id);
                    return bytes.has_value();
                });
                tally.checks.record(snap_ok);
                tally.snapshot_ms.push_back(snap_s * 1e3);
                if (bytes)
                    tally.snapshot_bytes += bytes->size();
            }
        }

        for (std::uint64_t id = 0; id < sessions; ++id) {
            std::optional<std::string> bytes;
            timed(tally.other_s, [&] {
                bytes = client.finishBytes(id);
                return bytes.has_value();
            });
            // Finish flushes the tail window, so its reply may carry
            // the trace's last boundary.
            drainEvents();
            ++tally.finishes;
            tally.checks.record(bytes && *bytes == _expected[id] &&
                                live[id] == _expected_events[id]);
            if (bytes)
                tally.finished[id] = std::move(*bytes);
        }
    }

    WorkloadEnv _env;
    std::vector<std::unique_ptr<bwsa::MemoryTrace>> _traces;
    std::vector<std::string> _expected;
    std::vector<PhaseEvents> _expected_events;
    std::vector<double> _append_ms;
    std::vector<double> _snapshot_ms;
    std::map<std::uint64_t, std::string> _finished;
};

} // namespace

std::unique_ptr<Workload>
makeServeStream(WorkloadEnv env)
{
    return std::make_unique<ServeStream>(std::move(env));
}

} // namespace perfbench
