/**
 * @file
 * Multi-client profiling service: protocol frames in, streaming
 * sessions underneath, profile artifacts out.
 *
 * A ProfileService owns every live StreamingProfileSession, keyed by
 * (tenant, session id) -- the tenant is the connection (assigned by
 * the transport), so two clients using the same session id never
 * collide and a dropped connection aborts exactly its own sessions.
 *
 * handle() is the whole request surface: one request frame in, one
 * response frame out, safe to call concurrently from any number of
 * transport threads (the server runs one connection per worker of a
 * shared exec::ThreadPool).  Per-session state is guarded by a
 * per-session mutex, so different sessions profile in parallel while
 * requests against one session serialize; when spilling is enabled
 * the shared artifact cache (not thread-safe) adds one service-wide
 * lock around the spill-capable operations.
 *
 * The service *validates* everything the streaming session would
 * panic on -- CRC, decodability, timestamp monotonicity, session
 * liveness -- and answers with typed error statuses, so no client
 * bytes can take the daemon down.  What a session throws (a spilled
 * epoch the cache evicted) is answered Internal for that request
 * alone.
 *
 * Latency accounting: every Append observes serve.ingest.ns and every
 * Snapshot/Finish observes serve.snapshot.ns (quarter-decade buckets,
 * MetricsRegistry::latencyBoundsNs), from which bench_serve_load and
 * the run report derive p50/p99/p999.
 */

#ifndef BWSA_SERVE_SERVICE_HH
#define BWSA_SERVE_SERVICE_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/pipeline.hh"
#include "obs/metrics.hh"
#include "serve/protocol.hh"
#include "store/artifact_cache.hh"

namespace bwsa::serve
{

/** Daemon-side knobs shared by every session. */
struct ServiceConfig
{
    /**
     * Interleave window bound of every session (0 = unbounded); a
     * Begin frame may override it per session.
     */
    std::size_t max_window = StreamingSessionConfig{}.max_window;

    /**
     * Per-session resident bound in bytes; sessions beyond it spill
     * epochs into @p spill_cache.  0 = unbounded (no cache needed).
     */
    std::uint64_t max_session_bytes = 0;

    /** Spill target (not owned); required when bounding memory. */
    store::ArtifactCache *spill_cache = nullptr;

    /**
     * Phase-detector knobs applied to sessions that request online
     * phase detection in their Begin frame (the window interval is
     * per-session, carried in the Begin payload).
     */
    obs::PhaseDetectorConfig phase_config;
};

/**
 * The online profiling service.
 */
class ProfileService
{
  public:
    explicit ProfileService(ServiceConfig config);

    ProfileService(const ProfileService &) = delete;
    ProfileService &operator=(const ProfileService &) = delete;

    /**
     * Serve one request for @p tenant; always returns a response
     * frame (echoing the request type and session id).  Thread-safe.
     *
     * When @p events is non-null, server-pushed notification frames
     * raised by the request (PhaseEvent boundaries crossed by an
     * Append or the tail flush of a Finish) are appended to it; the
     * transport must deliver them *before* the response frame.  A
     * null @p events drops the notifications (a session opened
     * without phase detection raises none).
     */
    Frame handle(std::uint64_t tenant, const Frame &request,
                 std::vector<Frame> *events = nullptr);

    /**
     * Drop every live session of @p tenant (connection torn down);
     * spilled epochs are invalidated.  Thread-safe.
     */
    void abortTenant(std::uint64_t tenant);

    /** True once a Shutdown frame has been accepted. */
    bool
    shutdownRequested() const
    {
        return _shutdown.load(std::memory_order_acquire);
    }

    /** Live sessions across all tenants. */
    std::size_t sessionCount() const;

    const ServiceConfig &config() const { return _config; }

  private:
    struct SessionState
    {
        std::mutex mutex;
        std::unique_ptr<StreamingProfileSession> session;
    };

    using SessionKey = std::pair<std::uint64_t, std::uint64_t>;

    struct KeyHash
    {
        std::size_t
        operator()(const SessionKey &key) const
        {
            // Splitmix-style fold; tenants and ids are small ints.
            std::uint64_t h = key.first * 0x9e3779b97f4a7c15ull;
            h ^= key.second + 0x9e3779b97f4a7c15ull + (h << 6) +
                 (h >> 2);
            return static_cast<std::size_t>(h);
        }
    };

    Frame handleHello(const Frame &request);
    Frame handleBegin(std::uint64_t tenant, const Frame &request);
    Frame handleAppend(std::uint64_t tenant, const Frame &request,
                       std::vector<Frame> *events);
    Frame handleSnapshot(std::uint64_t tenant, const Frame &request,
                         bool finish, std::vector<Frame> *events);

    std::shared_ptr<SessionState> findSession(std::uint64_t tenant,
                                              std::uint64_t id);

    ServiceConfig _config;
    std::atomic<bool> _shutdown{false};

    mutable std::mutex _mutex; ///< guards _sessions
    std::unordered_map<SessionKey, std::shared_ptr<SessionState>,
                       KeyHash>
        _sessions;

    /**
     * Serializes spill-capable session work: the artifact cache is
     * not thread-safe, and a spilling appendBlock() or a snapshot()
     * folding epochs touches it from transport threads.  Uncontended
     * (and never taken) when max_session_bytes is 0.
     */
    std::mutex _cache_mutex;

    obs::HistogramMetric _ingest_ns;
    obs::HistogramMetric _snapshot_ns;
    obs::Counter _requests;
    obs::Counter _errors;
    obs::Counter _sessions_opened;
    obs::Counter _sessions_closed;
};

} // namespace bwsa::serve

#endif // BWSA_SERVE_SERVICE_HH
