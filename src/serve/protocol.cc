#include "serve/protocol.hh"

#include <algorithm>
#include <bit>

#include "store/crc32.hh"
#include "trace/varint.hh"

namespace bwsa::serve
{

const char *
frameTypeName(FrameType type)
{
    switch (type) {
    case FrameType::Hello:
        return "hello";
    case FrameType::Begin:
        return "begin";
    case FrameType::Append:
        return "append";
    case FrameType::Snapshot:
        return "snapshot";
    case FrameType::Finish:
        return "finish";
    case FrameType::Shutdown:
        return "shutdown";
    case FrameType::PhaseEvent:
        return "phase-event";
    }
    return "unknown";
}

const char *
frameStatusName(FrameStatus status)
{
    switch (status) {
    case FrameStatus::Ok:
        return "ok";
    case FrameStatus::BadCrc:
        return "bad-crc";
    case FrameStatus::BadVersion:
        return "bad-version";
    case FrameStatus::UnknownSession:
        return "unknown-session";
    case FrameStatus::DuplicateSession:
        return "duplicate-session";
    case FrameStatus::BadPayload:
        return "bad-payload";
    case FrameStatus::OutOfOrder:
        return "out-of-order";
    case FrameStatus::Internal:
        return "internal";
    }
    return "unknown";
}

std::string
encodeFrame(const Frame &frame)
{
    std::string out;
    out.reserve(frame_header_bytes + frame.payload.size() + 4);
    out.append(store::frame_magic.data(), store::frame_magic.size());
    appendU32(out, store::serve_protocol_version);
    out.push_back(static_cast<char>(frame.type));
    out.push_back(static_cast<char>(frame.status));
    out.push_back(0);
    out.push_back(0);
    appendU64(out, frame.session);
    appendU32(out, static_cast<std::uint32_t>(frame.payload.size()));
    out.append(frame.payload);
    appendU32(out, store::crc32Of(frame.payload));
    return out;
}

bool
FrameReader::fail(const std::string &reason)
{
    _failed = true;
    _error = reason;
    return false;
}

bool
FrameReader::feed(const char *data, std::size_t size)
{
    if (_failed)
        return false;
    _buffer.append(data, size);

    while (_buffer.size() >= frame_header_bytes) {
        if (!std::equal(store::frame_magic.begin(),
                        store::frame_magic.end(), _buffer.begin()))
            return fail("bad frame magic");

        ByteCursor fields(_buffer.data() + 4, _buffer.size() - 4);
        std::uint32_t version = 0;
        fields.getU32(version);
        if (version != store::serve_protocol_version)
            return fail(
                std::string("unsupported protocol version ")
                    .append(std::to_string(version))
                    .append(" (this build speaks ")
                    .append(std::to_string(store::serve_protocol_version))
                    .append(")"));

        const unsigned char type =
            static_cast<unsigned char>(_buffer[8]);
        const unsigned char status =
            static_cast<unsigned char>(_buffer[9]);
        // bytes 10..11 reserved
        ByteCursor tail(_buffer.data() + 12, _buffer.size() - 12);
        std::uint64_t session = 0;
        std::uint32_t payload_len = 0;
        tail.getU64(session);
        tail.getU32(payload_len);
        if (payload_len > max_payload_bytes)
            return fail(std::string("oversized payload length ")
                            .append(std::to_string(payload_len)));
        if (type < static_cast<unsigned char>(FrameType::Hello) ||
            type > static_cast<unsigned char>(FrameType::PhaseEvent))
            return fail(std::string("unknown frame type ")
                            .append(std::to_string(type)));

        const std::size_t total =
            frame_header_bytes + payload_len + 4;
        if (_buffer.size() < total)
            break; // wait for more bytes

        Frame frame;
        frame.type = static_cast<FrameType>(type);
        frame.status = static_cast<FrameStatus>(status);
        frame.session = session;
        frame.payload.assign(_buffer, frame_header_bytes, payload_len);
        ByteCursor crc_cur(_buffer.data() + frame_header_bytes +
                               payload_len,
                           4);
        std::uint32_t crc = 0;
        crc_cur.getU32(crc);
        frame.crc_ok = crc == store::crc32Of(frame.payload);
        _ready.push_back(std::move(frame));
        _buffer.erase(0, total);
    }
    return true;
}

bool
FrameReader::next(Frame &out)
{
    if (_next_ready >= _ready.size())
        return false;
    out = std::move(_ready[_next_ready]);
    ++_next_ready;
    if (_next_ready == _ready.size()) {
        _ready.clear();
        _next_ready = 0;
    }
    return true;
}

std::string
encodeAppendPayload(const BranchRecord *records, std::size_t count)
{
    store::BlockPayloadEncoder encoder;
    for (std::size_t i = 0; i < count; ++i)
        encoder.append(records[i]);
    std::string out;
    out.reserve(8 + encoder.payload().size());
    appendU64(out, count);
    out.append(encoder.payload());
    return out;
}

bool
decodeAppendPayload(const std::string &payload,
                    std::vector<BranchRecord> &out, std::string &error)
{
    ByteCursor cur(payload);
    std::uint64_t count = 0;
    if (!cur.getU64(count)) {
        error = "append payload shorter than its count field";
        return false;
    }
    if (count > max_payload_bytes) {
        // Two varint bytes minimum per record; a count beyond the
        // payload cap can never be honest.
        error = std::string("implausible record count ")
                    .append(std::to_string(count));
        return false;
    }
    return store::decodeBlockPayload(payload.data() + 8,
                                     payload.size() - 8, count, out,
                                     error);
}

std::string
encodePhaseEventPayload(const PhaseEventInfo &event)
{
    std::string out;
    out.reserve(32);
    appendU64(out, event.index);
    appendU64(out, event.start_ts);
    appendU64(out, event.prev_start_ts);
    appendU64(out, std::bit_cast<std::uint64_t>(event.similarity));
    return out;
}

bool
decodePhaseEventPayload(const std::string &payload,
                        PhaseEventInfo &out, std::string &error)
{
    if (payload.size() != 32) {
        error = std::string("phase-event payload must be 32 bytes, got ")
                    .append(std::to_string(payload.size()));
        return false;
    }
    ByteCursor cur(payload);
    std::uint64_t bits = 0;
    cur.getU64(out.index);
    cur.getU64(out.start_ts);
    cur.getU64(out.prev_start_ts);
    cur.getU64(bits);
    out.similarity = std::bit_cast<double>(bits);
    return true;
}

} // namespace bwsa::serve
