#include "serve/service.hh"

#include <chrono>
#include <exception>
#include <utility>
#include <vector>

#include "store/profile_artifact.hh"
#include "trace/varint.hh"
#include "util/logging.hh"

namespace bwsa::serve
{

namespace
{

using Clock = std::chrono::steady_clock;

std::uint64_t
nanosSince(Clock::time_point start)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - start)
            .count());
}

Frame
errorFrame(const Frame &request, FrameStatus status,
           std::string message)
{
    Frame response;
    response.type = request.type;
    response.status = status;
    response.session = request.session;
    response.payload = std::move(message);
    return response;
}

Frame
okFrame(const Frame &request, std::string payload = {})
{
    Frame response;
    response.type = request.type;
    response.session = request.session;
    response.payload = std::move(payload);
    return response;
}

/**
 * Encode the boundaries a session crossed while serving the current
 * request as PhaseEvent frames.  Caller holds the session lock.
 */
void
drainPhaseEvents(StreamingProfileSession &session,
                 std::uint64_t session_id, std::vector<Frame> *events)
{
    if (!session.phasesEnabled())
        return;
    for (const StreamingPhaseEvent &event :
         session.takePhaseEvents()) {
        if (!events)
            continue;
        PhaseEventInfo info;
        info.index = event.index;
        info.start_ts = event.start_ts;
        info.prev_start_ts = event.prev_start_ts;
        info.similarity = event.similarity;
        Frame frame;
        frame.type = FrameType::PhaseEvent;
        frame.session = session_id;
        frame.payload = encodePhaseEventPayload(info);
        events->push_back(std::move(frame));
    }
}

} // namespace

ProfileService::ProfileService(ServiceConfig config)
    : _config(std::move(config))
{
    if (_config.max_session_bytes != 0 && !_config.spill_cache)
        bwsa_fatal("ProfileService: bounding session memory requires "
                   "a spill cache");
    auto &registry = obs::MetricsRegistry::global();
    _ingest_ns = registry.histogram(
        "serve.ingest.ns", obs::MetricsRegistry::latencyBoundsNs());
    _snapshot_ns = registry.histogram(
        "serve.snapshot.ns", obs::MetricsRegistry::latencyBoundsNs());
    _requests = registry.counter("serve.requests");
    _errors = registry.counter("serve.errors");
    _sessions_opened = registry.counter("serve.sessions.opened");
    _sessions_closed = registry.counter("serve.sessions.closed");
}

std::size_t
ProfileService::sessionCount() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _sessions.size();
}

std::shared_ptr<ProfileService::SessionState>
ProfileService::findSession(std::uint64_t tenant, std::uint64_t id)
{
    std::lock_guard<std::mutex> lock(_mutex);
    auto it = _sessions.find({tenant, id});
    return it == _sessions.end() ? nullptr : it->second;
}

Frame
ProfileService::handle(std::uint64_t tenant, const Frame &request,
                       std::vector<Frame> *events)
{
    _requests.inc();
    Frame response;
    try {
        if (!request.crc_ok) {
            response = errorFrame(request, FrameStatus::BadCrc,
                                  "payload crc mismatch");
        } else {
            switch (request.type) {
            case FrameType::Hello:
                response = handleHello(request);
                break;
            case FrameType::Begin:
                response = handleBegin(tenant, request);
                break;
            case FrameType::Append:
                response = handleAppend(tenant, request, events);
                break;
            case FrameType::Snapshot:
                response =
                    handleSnapshot(tenant, request, false, events);
                break;
            case FrameType::Finish:
                response =
                    handleSnapshot(tenant, request, true, events);
                break;
            case FrameType::Shutdown:
                _shutdown.store(true, std::memory_order_release);
                response = okFrame(request);
                break;
            case FrameType::PhaseEvent:
                response = errorFrame(request,
                                      FrameStatus::BadPayload,
                                      "phase-event frames are "
                                      "server-pushed, not requests");
                break;
            }
        }
    } catch (const std::exception &e) {
        response = errorFrame(request, FrameStatus::Internal,
                              e.what());
    }
    if (response.status != FrameStatus::Ok)
        _errors.inc();
    return response;
}

Frame
ProfileService::handleHello(const Frame &request)
{
    ByteCursor cur(request.payload);
    std::uint32_t version = 0;
    if (!cur.getU32(version) || !cur.atEnd())
        return errorFrame(request, FrameStatus::BadPayload,
                          "hello payload must be one u32");
    if (version != store::block_trace_version)
        return errorFrame(
            request, FrameStatus::BadVersion,
            std::string("client speaks block-trace v")
                .append(std::to_string(version))
                .append(", server speaks v")
                .append(std::to_string(store::block_trace_version)));
    std::string payload;
    appendU32(payload, store::block_trace_version);
    return okFrame(request, std::move(payload));
}

Frame
ProfileService::handleBegin(std::uint64_t tenant, const Frame &request)
{
    std::uint64_t max_window = 0;
    std::uint64_t phase_interval = 0;
    if (!request.payload.empty()) {
        ByteCursor cur(request.payload);
        bool ok = cur.getU64(max_window);
        if (ok && !cur.atEnd())
            ok = cur.getU64(phase_interval);
        if (!ok || !cur.atEnd())
            return errorFrame(request, FrameStatus::BadPayload,
                              "begin payload must be empty, one u64 "
                              "window override, or u64 window + u64 "
                              "phase interval");
    }

    StreamingSessionConfig session_config;
    session_config.max_window =
        max_window != 0 ? static_cast<std::size_t>(max_window)
                        : _config.max_window;
    if (phase_interval != 0) {
        session_config.phase_interval = phase_interval;
        session_config.phase_config = _config.phase_config;
    }
    if (_config.max_session_bytes != 0) {
        session_config.max_resident_bytes = _config.max_session_bytes;
        session_config.spill_cache = _config.spill_cache;
        session_config.spill_scope =
            std::string("tenant")
                .append(std::to_string(tenant))
                .append("/session")
                .append(std::to_string(request.session));
    }

    {
        std::lock_guard<std::mutex> lock(_mutex);
        SessionKey key{tenant, request.session};
        if (_sessions.count(key) != 0)
            return errorFrame(request, FrameStatus::DuplicateSession,
                              std::string("session ")
                                  .append(std::to_string(request.session))
                                  .append(" is already open"));
        auto state = std::make_shared<SessionState>();
        state->session = std::make_unique<StreamingProfileSession>(
            std::move(session_config));
        _sessions.emplace(key, std::move(state));
    }
    _sessions_opened.inc();
    return okFrame(request);
}

Frame
ProfileService::handleAppend(std::uint64_t tenant,
                             const Frame &request,
                             std::vector<Frame> *events)
{
    Clock::time_point start = Clock::now();
    std::shared_ptr<SessionState> state =
        findSession(tenant, request.session);
    if (!state)
        return errorFrame(request, FrameStatus::UnknownSession,
                          std::string("no open session ")
                              .append(std::to_string(request.session)));

    std::vector<BranchRecord> records;
    std::string error;
    if (!decodeAppendPayload(request.payload, records, error))
        return errorFrame(request, FrameStatus::BadPayload,
                          std::move(error));

    std::lock_guard<std::mutex> session_lock(state->mutex);
    StreamingProfileSession &session = *state->session;

    // Pre-validate what the session would panic on: the stream's
    // timestamps must strictly ascend across the whole session.
    std::uint64_t prev = session.lastTimestamp();
    for (std::size_t i = 0; i < records.size(); ++i) {
        if ((session.recordCount() != 0 || i != 0) &&
            records[i].timestamp <= prev)
            return errorFrame(
                request, FrameStatus::OutOfOrder,
                std::string("timestamps must strictly ascend (record ")
                    .append(std::to_string(i))
                    .append(" of this block)"));
        prev = records[i].timestamp;
    }

    if (session.config().spill_cache) {
        std::lock_guard<std::mutex> cache_lock(_cache_mutex);
        session.appendBlock(records);
    } else {
        session.appendBlock(records);
    }
    drainPhaseEvents(session, request.session, events);
    _ingest_ns.observe(nanosSince(start));
    return okFrame(request);
}

Frame
ProfileService::handleSnapshot(std::uint64_t tenant,
                               const Frame &request, bool finish,
                               std::vector<Frame> *events)
{
    Clock::time_point start = Clock::now();
    std::shared_ptr<SessionState> state =
        findSession(tenant, request.session);
    if (!state)
        return errorFrame(request, FrameStatus::UnknownSession,
                          std::string("no open session ")
                              .append(std::to_string(request.session)));

    std::string payload;
    {
        std::lock_guard<std::mutex> session_lock(state->mutex);
        StreamingProfileSession &session = *state->session;
        store::ProfileArtifact artifact;
        if (session.config().spill_cache) {
            std::lock_guard<std::mutex> cache_lock(_cache_mutex);
            artifact = finish ? session.finish() : session.snapshot();
        } else {
            artifact = finish ? session.finish() : session.snapshot();
        }
        if (finish)
            // finish() flushed the tail window; a boundary there is
            // the session's last chance to raise an event.
            drainPhaseEvents(session, request.session, events);
        payload = store::serializeProfileArtifact(artifact);
    }
    if (finish) {
        {
            std::lock_guard<std::mutex> lock(_mutex);
            _sessions.erase({tenant, request.session});
        }
        _sessions_closed.inc();
    }
    _snapshot_ns.observe(nanosSince(start));
    return okFrame(request, std::move(payload));
}

void
ProfileService::abortTenant(std::uint64_t tenant)
{
    std::vector<std::shared_ptr<SessionState>> doomed;
    {
        std::lock_guard<std::mutex> lock(_mutex);
        for (auto it = _sessions.begin(); it != _sessions.end();) {
            if (it->first.first == tenant) {
                doomed.push_back(std::move(it->second));
                it = _sessions.erase(it);
            } else {
                ++it;
            }
        }
    }
    // Destroy outside the map lock; abandoned sessions invalidate
    // their spilled epochs, which touches the shared cache.
    std::lock_guard<std::mutex> cache_lock(_cache_mutex);
    doomed.clear();
}

} // namespace bwsa::serve
