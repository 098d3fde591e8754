#include "net/wire.hh"

#include <cstring>

#include "util/crc32.hh"

namespace clap::net
{

const char *
frameTypeName(FrameType type)
{
    switch (type) {
      case FrameType::Hello:             return "Hello";
      case FrameType::HelloOk:           return "HelloOk";
      case FrameType::Predict:           return "Predict";
      case FrameType::PredictOk:         return "PredictOk";
      case FrameType::Train:             return "Train";
      case FrameType::TrainOk:           return "TrainOk";
      case FrameType::Ping:              return "Ping";
      case FrameType::Pong:              return "Pong";
      case FrameType::Stats:             return "Stats";
      case FrameType::StatsOk:           return "StatsOk";
      case FrameType::SnapshotFetch:     return "SnapshotFetch";
      case FrameType::SnapshotData:      return "SnapshotData";
      case FrameType::SnapshotInstall:   return "SnapshotInstall";
      case FrameType::SnapshotInstallOk: return "SnapshotInstallOk";
      case FrameType::Shutdown:          return "Shutdown";
      case FrameType::ShutdownOk:        return "ShutdownOk";
      case FrameType::ErrorReply:        return "ErrorReply";
      case FrameType::GoAway:            return "GoAway";
      case FrameType::ObsFetch:          return "ObsFetch";
      case FrameType::ObsOk:             return "ObsOk";
    }
    return "Unknown";
}

void
putU8(std::string &out, std::uint8_t v)
{
    out.push_back(static_cast<char>(v));
}

void
putU16(std::string &out, std::uint16_t v)
{
    for (int i = 0; i < 2; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
putU32(std::string &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
putU64(std::string &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
putString(std::string &out, std::string_view s)
{
    putU32(out, static_cast<std::uint32_t>(s.size()));
    out.append(s.data(), s.size());
}

bool
getU8(std::string_view in, std::size_t &pos, std::uint8_t &v)
{
    if (pos + 1 > in.size())
        return false;
    v = static_cast<std::uint8_t>(in[pos++]);
    return true;
}

bool
getU16(std::string_view in, std::size_t &pos, std::uint16_t &v)
{
    if (pos + 2 > in.size())
        return false;
    v = 0;
    for (int i = 0; i < 2; ++i)
        v |= static_cast<std::uint16_t>(
            static_cast<std::uint8_t>(in[pos + i])) << (8 * i);
    pos += 2;
    return true;
}

bool
getU32(std::string_view in, std::size_t &pos, std::uint32_t &v)
{
    if (pos + 4 > in.size())
        return false;
    v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(
            static_cast<std::uint8_t>(in[pos + i])) << (8 * i);
    pos += 4;
    return true;
}

bool
getU64(std::string_view in, std::size_t &pos, std::uint64_t &v)
{
    if (pos + 8 > in.size())
        return false;
    v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(
            static_cast<std::uint8_t>(in[pos + i])) << (8 * i);
    pos += 8;
    return true;
}

bool
getString(std::string_view in, std::size_t &pos, std::string &s)
{
    std::uint32_t len = 0;
    if (!getU32(in, pos, len))
        return false;
    if (pos + len > in.size())
        return false;
    s.assign(in.data() + pos, len);
    pos += len;
    return true;
}

std::string
encodeFrame(const Frame &frame)
{
    // Only frames carrying a trace context pay the prefix.
    const bool traced = frame.trace.valid();
    std::string body;
    if (traced) {
        body.reserve(traceContextBytes + frame.payload.size());
        putU64(body, frame.trace.traceId);
        putU64(body, frame.trace.spanId);
        putU8(body, frame.trace.sampled ? 1 : 0);
        body += frame.payload;
    }
    const std::string &payload = traced ? body : frame.payload;

    std::string out;
    out.reserve(frameHeaderBytes + payload.size() + frameTrailerBytes);
    putU32(out, wireMagic);
    putU16(out, traced ? wireVersion : plainFrameVersion);
    putU16(out, static_cast<std::uint16_t>(frame.type));
    putU64(out, frame.id);
    putU32(out, static_cast<std::uint32_t>(payload.size()));
    putU32(out, crc32(out.data(), out.size()));
    out += payload;
    putU32(out, crc32(payload.data(), payload.size()));
    return out;
}

void
FrameReader::feed(const void *data, std::size_t len)
{
    // Compact lazily: only once the consumed prefix dominates, so
    // steady-state feeds are amortized O(len).
    if (consumed_ > 0 && consumed_ >= buffer_.size() / 2) {
        buffer_.erase(0, consumed_);
        consumed_ = 0;
    }
    buffer_.append(static_cast<const char *>(data), len);
}

FrameReader::Status
FrameReader::next(Frame &out, Error &error)
{
    if (poisoned_) {
        error = makeError(ErrorCode::ProtocolError,
                          "frame stream already unsynchronized");
        return Status::Corrupt;
    }

    const std::string_view view{buffer_.data() + consumed_,
                                buffer_.size() - consumed_};
    if (view.size() < frameHeaderBytes)
        return Status::NeedMore;

    std::size_t pos = 0;
    std::uint32_t magic = 0, length = 0, hcrc = 0;
    std::uint16_t version = 0, rawType = 0;
    std::uint64_t id = 0;
    getU32(view, pos, magic);
    getU16(view, pos, version);
    getU16(view, pos, rawType);
    getU64(view, pos, id);
    getU32(view, pos, length);
    const std::uint32_t want_hcrc = crc32(view.data(), pos);
    getU32(view, pos, hcrc);

    // Validate the header CRC before *any* header field: with a bad
    // CRC every field (including length) is untrustworthy.
    if (hcrc != want_hcrc) {
        poisoned_ = true;
        error = makeError(ErrorCode::BadChecksum,
                          "frame header CRC mismatch");
        return Status::Corrupt;
    }
    if (magic != wireMagic) {
        poisoned_ = true;
        error = makeError(ErrorCode::BadMagic,
                          "frame magic mismatch");
        return Status::Corrupt;
    }
    const bool traced = version == wireVersion;
    if (!traced && version != plainFrameVersion) {
        poisoned_ = true;
        error = makeError(ErrorCode::BadVersion,
                          "unsupported wire version " +
                              std::to_string(version));
        return Status::Corrupt;
    }
    if (rawType < static_cast<std::uint16_t>(FrameType::Hello) ||
        rawType > static_cast<std::uint16_t>(FrameType::ObsOk)) {
        poisoned_ = true;
        error = makeError(ErrorCode::BadHeader,
                          "unknown frame type " +
                              std::to_string(rawType));
        return Status::Corrupt;
    }
    if (length > maxFramePayload) {
        poisoned_ = true;
        error = makeError(ErrorCode::BadHeader,
                          "frame payload length " +
                              std::to_string(length) +
                              " exceeds limit");
        return Status::Corrupt;
    }
    if (traced && length < traceContextBytes) {
        poisoned_ = true;
        error = makeError(ErrorCode::BadHeader,
                          "traced frame too short for trace context");
        return Status::Corrupt;
    }

    const std::size_t total =
        frameHeaderBytes + length + frameTrailerBytes;
    if (view.size() < total)
        return Status::NeedMore;

    const std::string_view payload = view.substr(frameHeaderBytes,
                                                 length);
    std::size_t tpos = frameHeaderBytes + length;
    std::uint32_t pcrc = 0;
    getU32(view, tpos, pcrc);
    if (pcrc != crc32(payload.data(), payload.size())) {
        poisoned_ = true;
        error = makeError(ErrorCode::BadChecksum,
                          "frame payload CRC mismatch");
        return Status::Corrupt;
    }

    out.type = static_cast<FrameType>(rawType);
    out.id = id;
    out.trace = obs::TraceContext{};
    if (traced) {
        std::size_t ppos = 0;
        std::uint8_t flags = 0;
        getU64(payload, ppos, out.trace.traceId);
        getU64(payload, ppos, out.trace.spanId);
        getU8(payload, ppos, flags);
        out.trace.sampled = (flags & 1u) != 0;
        if (!out.trace.valid()) {
            poisoned_ = true;
            error = makeError(ErrorCode::BadHeader,
                              "traced frame with null trace id");
            return Status::Corrupt;
        }
        out.payload.assign(payload.data() + traceContextBytes,
                           payload.size() - traceContextBytes);
    } else {
        out.payload.assign(payload.data(), payload.size());
    }
    consumed_ += total;
    return Status::Ok;
}

void
putLoadInfo(std::string &out, const LoadInfo &info)
{
    putU64(out, info.pc);
    putU32(out, static_cast<std::uint32_t>(info.immOffset));
    putU64(out, info.ghr);
    putU64(out, info.pathHist);
}

bool
getLoadInfo(std::string_view in, std::size_t &pos, LoadInfo &info)
{
    std::uint32_t imm = 0;
    if (!getU64(in, pos, info.pc) || !getU32(in, pos, imm) ||
        !getU64(in, pos, info.ghr) || !getU64(in, pos, info.pathHist))
        return false;
    info.immOffset = static_cast<std::int32_t>(imm);
    return true;
}

void
putPrediction(std::string &out, const Prediction &pred)
{
    // Pack the seven booleans into one flags byte; every other field
    // at full width. A predictor's update() reads all of these, so a
    // lossy encoding here would silently change training behavior.
    std::uint8_t flags = 0;
    flags |= pred.lbHit ? 1u << 0 : 0;
    flags |= pred.hasAddress ? 1u << 1 : 0;
    flags |= pred.speculate ? 1u << 2 : 0;
    flags |= pred.capHasAddr ? 1u << 3 : 0;
    flags |= pred.capSpec ? 1u << 4 : 0;
    flags |= pred.strideHasAddr ? 1u << 5 : 0;
    flags |= pred.strideSpec ? 1u << 6 : 0;
    flags |= pred.lbHandle.valid ? 1u << 7 : 0;
    putU8(out, flags);
    putU8(out, static_cast<std::uint8_t>(pred.component));
    putU8(out, pred.selectorState);
    putU64(out, pred.addr);
    putU64(out, pred.capAddr);
    putU64(out, pred.strideAddr);
    putU32(out, pred.lbHandle.slot);
    putU32(out, pred.lbHandle.gen);
}

bool
getPrediction(std::string_view in, std::size_t &pos, Prediction &pred)
{
    std::uint8_t flags = 0, component = 0;
    if (!getU8(in, pos, flags) || !getU8(in, pos, component) ||
        !getU8(in, pos, pred.selectorState) ||
        !getU64(in, pos, pred.addr) || !getU64(in, pos, pred.capAddr) ||
        !getU64(in, pos, pred.strideAddr) ||
        !getU32(in, pos, pred.lbHandle.slot) ||
        !getU32(in, pos, pred.lbHandle.gen))
        return false;
    if (component > static_cast<std::uint8_t>(Component::Cap))
        return false;
    pred.lbHit = flags & (1u << 0);
    pred.hasAddress = flags & (1u << 1);
    pred.speculate = flags & (1u << 2);
    pred.capHasAddr = flags & (1u << 3);
    pred.capSpec = flags & (1u << 4);
    pred.strideHasAddr = flags & (1u << 5);
    pred.strideSpec = flags & (1u << 6);
    pred.lbHandle.valid = flags & (1u << 7);
    pred.component = static_cast<Component>(component);
    return true;
}

void
putError(std::string &out, const Error &error)
{
    putU8(out, static_cast<std::uint8_t>(error.code()));
    putU8(out, isRetryable(error.code()) ? 1 : 0);
    // Message and contexts travel separately: str() prepends the code
    // name, and wrapping str() as the message would make the receiver
    // render "Code: Code: ..." — the name must appear exactly once.
    putString(out, error.message());
    const auto &contexts = error.contexts();
    putU32(out, static_cast<std::uint32_t>(contexts.size()));
    for (const std::string &context : contexts)
        putString(out, context);
}

bool
getError(std::string_view in, std::size_t &pos, Error &error)
{
    std::uint8_t raw_code = 0, retryable = 0;
    std::string message;
    std::uint32_t contexts = 0;
    if (!getU8(in, pos, raw_code) || !getU8(in, pos, retryable) ||
        !getString(in, pos, message) || !getU32(in, pos, contexts))
        return false;
    if (raw_code > static_cast<std::uint8_t>(ErrorCode::DeadlineExceeded))
        return false;
    // Each context costs at least its 4-byte length prefix.
    if (pos > in.size() || contexts > (in.size() - pos) / 4 + 1)
        return false;
    Error decoded = makeError(static_cast<ErrorCode>(raw_code),
                              std::move(message));
    for (std::uint32_t i = 0; i < contexts; ++i) {
        std::string context;
        if (!getString(in, pos, context))
            return false;
        // withContext appends in place; order round-trips exactly.
        (void)std::move(decoded).withContext(std::move(context));
    }
    error = std::move(decoded);
    return true;
}

std::string
encodeHello(std::string_view client_name)
{
    std::string out;
    putU16(out, wireVersion);
    putString(out, client_name);
    return out;
}

bool
decodeHello(std::string_view payload, std::uint16_t &version,
            std::string &client_name)
{
    std::size_t pos = 0;
    return getU16(payload, pos, version) &&
        getString(payload, pos, client_name) && pos == payload.size();
}

std::string
encodeHelloOk(std::string_view server_name,
              std::uint64_t clock_epoch_unix_ns)
{
    std::string out;
    putU16(out, wireVersion);
    putString(out, server_name);
    putU64(out, clock_epoch_unix_ns);
    return out;
}

bool
decodeHelloOk(std::string_view payload, std::uint16_t &version,
              std::string &server_name,
              std::uint64_t &clock_epoch_unix_ns)
{
    std::size_t pos = 0;
    return getU16(payload, pos, version) &&
        getString(payload, pos, server_name) &&
        getU64(payload, pos, clock_epoch_unix_ns) &&
        pos == payload.size();
}

std::string
encodeObsFetch(bool include_timing)
{
    std::string out;
    putU8(out, include_timing ? 1 : 0);
    return out;
}

bool
decodeObsFetch(std::string_view payload, bool &include_timing)
{
    std::size_t pos = 0;
    std::uint8_t flags = 0;
    if (!getU8(payload, pos, flags) || pos != payload.size())
        return false;
    include_timing = (flags & 1u) != 0;
    return true;
}

std::string
encodePredictRequest(const LoadInfo &info)
{
    std::string out;
    putLoadInfo(out, info);
    return out;
}

bool
decodePredictRequest(std::string_view payload, LoadInfo &info)
{
    std::size_t pos = 0;
    return getLoadInfo(payload, pos, info) && pos == payload.size();
}

std::string
encodePredictResponse(std::uint64_t pc, const Prediction &pred)
{
    std::string out;
    putU64(out, pc);
    putPrediction(out, pred);
    return out;
}

bool
decodePredictResponse(std::string_view payload, std::uint64_t &pc,
                      Prediction &pred)
{
    std::size_t pos = 0;
    return getU64(payload, pos, pc) &&
        getPrediction(payload, pos, pred) && pos == payload.size();
}

std::string
encodeTrainRequest(const LoadInfo &info, std::uint64_t actual_addr,
                   const Prediction &pred)
{
    std::string out;
    putLoadInfo(out, info);
    putU64(out, actual_addr);
    putPrediction(out, pred);
    return out;
}

bool
decodeTrainRequest(std::string_view payload, LoadInfo &info,
                   std::uint64_t &actual_addr, Prediction &pred)
{
    std::size_t pos = 0;
    return getLoadInfo(payload, pos, info) &&
        getU64(payload, pos, actual_addr) &&
        getPrediction(payload, pos, pred) && pos == payload.size();
}

std::string
encodeErrorPayload(const Error &error)
{
    std::string out;
    putError(out, error);
    return out;
}

bool
decodeErrorPayload(std::string_view payload, Error &error)
{
    std::size_t pos = 0;
    return getError(payload, pos, error) && pos == payload.size();
}

std::string
encodeServiceStats(const ServiceWireStats &stats)
{
    std::string out;
    putPredictionStats(out, stats.aggregate);
    putU32(out, static_cast<std::uint32_t>(stats.shards.size()));
    for (const auto &shard : stats.shards) {
        putU64(out, shard.predicts);
        putU64(out, shard.trains);
        putPredictionStats(out, shard.stats);
    }
    return out;
}

bool
decodeServiceStats(std::string_view payload, ServiceWireStats &stats)
{
    std::size_t pos = 0;
    if (!getPredictionStats(payload, pos, stats.aggregate))
        return false;
    std::uint32_t shards = 0;
    if (!getU32(payload, pos, shards))
        return false;
    // 16 bytes of counters + 160 bytes of PredictionStats per shard
    // entry; bound before reserving.
    if (shards > payload.size() / 176 + 1)
        return false;
    stats.shards.clear();
    stats.shards.reserve(shards);
    for (std::uint32_t i = 0; i < shards; ++i) {
        ShardWireStats shard;
        if (!getU64(payload, pos, shard.predicts) ||
            !getU64(payload, pos, shard.trains) ||
            !getPredictionStats(payload, pos, shard.stats))
            return false;
        stats.shards.push_back(shard);
    }
    return pos == payload.size();
}

std::string
encodeSnapshotRequest(std::uint32_t shard)
{
    std::string out;
    putU32(out, shard);
    return out;
}

bool
decodeSnapshotRequest(std::string_view payload, std::uint32_t &shard)
{
    std::size_t pos = 0;
    return getU32(payload, pos, shard) && pos == payload.size();
}

std::string
encodeSnapshotData(std::uint32_t shard, std::string_view bytes)
{
    std::string out;
    putU32(out, shard);
    putString(out, bytes);
    return out;
}

bool
decodeSnapshotData(std::string_view payload, std::uint32_t &shard,
                   std::string &bytes)
{
    std::size_t pos = 0;
    return getU32(payload, pos, shard) &&
        getString(payload, pos, bytes) && pos == payload.size();
}

std::string
encodeSnapshotInstallOk(std::uint32_t restored, bool salvaged)
{
    std::string out;
    putU32(out, restored);
    putU8(out, salvaged ? 1 : 0);
    return out;
}

bool
decodeSnapshotInstallOk(std::string_view payload,
                        std::uint32_t &restored, bool &salvaged)
{
    std::size_t pos = 0;
    std::uint8_t flag = 0;
    if (!getU32(payload, pos, restored) || !getU8(payload, pos, flag) ||
        pos != payload.size())
        return false;
    salvaged = flag != 0;
    return true;
}

} // namespace clap::net
