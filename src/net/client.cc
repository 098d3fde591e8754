#include "net/client.hh"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "obs/trace_context.hh"
#include "obs/trace_events.hh"

namespace clap::net
{

namespace
{

using Clock = std::chrono::steady_clock;

int
remainingMs(Clock::time_point start, int budget_ms)
{
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            Clock::now() - start)
            .count();
    if (elapsed >= budget_ms)
        return 0;
    return static_cast<int>(budget_ms - elapsed);
}

/** Transport failures worth a reconnect-and-retry; server-decoded
 *  ErrorReplies never come through here. */
bool
isTransportRetryable(ErrorCode code)
{
    return code == ErrorCode::ConnectionLost ||
           code == ErrorCode::DeadlineExceeded ||
           code == ErrorCode::ProtocolError;
}

} // namespace

NetClient::NetClient(const ClientConfig &config)
    : config_(config), jitter_(config.jitterSeed)
{
    // A bad endpoint spec surfaces as an error from the first request
    // (ensureConnected re-validates); the constructor never throws.
    if (auto parsed = parseEndpoint(config_.endpoint); parsed)
        endpoint_ = *parsed;
}

NetClient::~NetClient() = default;

void
NetClient::disconnect()
{
    if (stream_) {
        stream_->shutdownBoth();
        stream_.reset();
    }
    reader_ = FrameReader{};
    // serverClockOffsetNs_ survives as "last known" — a scrape-merge
    // consumer wants the offset even after the connection closed.
}

void
NetClient::backoff(unsigned attempt)
{
    if (config_.backoffMaxMs == 0)
        return;
    // Capped exponential: base * 2^(attempt-1), jittered to the upper
    // half so concurrent clients spread out instead of marching in
    // lockstep (full jitter would sometimes retry instantly).
    std::int64_t ms = config_.backoffBaseMs;
    for (unsigned i = 1; i < attempt && ms < config_.backoffMaxMs; ++i)
        ms *= 2;
    ms = std::min<std::int64_t>(ms, config_.backoffMaxMs);
    if (ms <= 0)
        return;
    const std::int64_t floor = ms / 2;
    const std::int64_t jittered =
        floor + static_cast<std::int64_t>(
                    jitter_.below(static_cast<std::uint64_t>(ms - floor) +
                                  1));
    std::this_thread::sleep_for(std::chrono::milliseconds(jittered));
}

Expected<void>
NetClient::ensureConnected()
{
    if (stream_)
        return ok();
    if (auto valid = config_.validate(); !valid)
        return valid;
    if (endpoint_.kind == Endpoint::Kind::Unix && endpoint_.path.empty())
        return makeError(ErrorCode::InvalidArgument,
                         "bad endpoint spec '" + config_.endpoint + "'");

    auto connected = connectEndpoint(endpoint_, config_.connectDeadlineMs);
    if (!connected) {
        ++counters_.connectFailures;
        return std::move(connected.error())
            .withContext("connecting to " + endpoint_.str());
    }
    std::unique_ptr<Stream> stream = std::move(*connected);
    if (config_.decorate)
        stream = config_.decorate(std::move(stream));
    stream_ = std::move(stream);
    reader_ = FrameReader{};

    // Version handshake before any request; a mismatched server must
    // reject us here (BadVersion), not corrupt a prediction later.
    const std::uint64_t id = nextId_++;
    if (auto sent = sendFrame(FrameType::Hello, id,
                              encodeHello(config_.clientName));
        !sent) {
        disconnect();
        ++counters_.connectFailures;
        return std::move(sent.error()).withContext("hello handshake");
    }
    auto reply =
        awaitReply(id, FrameType::HelloOk, config_.requestDeadlineMs);
    if (!reply) {
        disconnect();
        ++counters_.connectFailures;
        return std::move(reply.error()).withContext("hello handshake");
    }
    if (reply->isError) {
        disconnect();
        ++counters_.connectFailures;
        return std::move(reply->serverError)
            .withContext("hello handshake");
    }
    std::uint16_t version = 0;
    std::string serverName;
    std::uint64_t epochNs = 0;
    if (!decodeHelloOk(reply->frame.payload, version, serverName,
                       epochNs) ||
        version != wireVersion) {
        disconnect();
        ++counters_.connectFailures;
        return makeError(ErrorCode::ProtocolError,
                         "malformed HelloOk payload");
    }
    serverClockOffsetNs_ = static_cast<std::int64_t>(epochNs) -
        static_cast<std::int64_t>(obs::traceClockEpochUnixNs());
    connectionFirstId_ = nextId_;
    ++counters_.connects;
    return ok();
}

Expected<void>
NetClient::sendFrame(FrameType type, std::uint64_t id,
                     std::string payload)
{
    Frame frame;
    frame.type = type;
    frame.id = id;
    frame.payload = std::move(payload);
    // Propagate the ambient trace context on requests; the handshake
    // belongs to no request's trace. Only sampled contexts travel: an
    // unsampled request stays a plain frame, so tracing-off and
    // tracing-on runs produce the same wire bytes (the netchaos
    // determinism contract).
    const obs::TraceContext ctx = obs::currentTraceContext();
    if (type != FrameType::Hello && ctx.valid() && ctx.sampled)
        frame.trace = ctx;
    const std::string bytes = encodeFrame(frame);
    auto sent = stream_->sendAll(bytes.data(), bytes.size(),
                                 config_.requestDeadlineMs);
    if (!sent)
        disconnect();
    return sent;
}

Expected<NetClient::Reply>
NetClient::awaitReply(std::uint64_t id, FrameType ok_type,
                      int deadline_ms)
{
    const auto start = Clock::now();
    char buf[16 * 1024];
    for (;;) {
        Frame frame;
        Error error;
        const auto status = reader_.next(frame, error);
        if (status == FrameReader::Status::Corrupt) {
            ++counters_.corruptReplies;
            disconnect();
            return makeError(ErrorCode::ProtocolError,
                             "reply stream corrupt: " + error.str());
        }
        if (status == FrameReader::Status::Ok) {
            if (frame.type == FrameType::GoAway) {
                ++counters_.goAways;
                Error reason;
                const bool decoded =
                    decodeErrorPayload(frame.payload, reason);
                disconnect();
                return makeError(ErrorCode::ConnectionLost,
                                 decoded ? "server sent GoAway: " +
                                               reason.str()
                                         : "server sent GoAway");
            }
            if (frame.id != id) {
                // The server answers in order; an unexpected id means
                // this connection's pairing is broken beyond repair.
                ++counters_.wrongReplies;
                disconnect();
                return makeError(ErrorCode::ProtocolError,
                                 "reply id " + std::to_string(frame.id) +
                                     " does not match request " +
                                     std::to_string(id));
            }
            if (frame.type == FrameType::ErrorReply) {
                Reply reply;
                reply.isError = true;
                if (!decodeErrorPayload(frame.payload,
                                        reply.serverError)) {
                    disconnect();
                    return makeError(ErrorCode::ProtocolError,
                                     "malformed ErrorReply payload");
                }
                ++counters_.errorReplies;
                return reply;
            }
            if (frame.type != ok_type) {
                disconnect();
                return makeError(
                    ErrorCode::ProtocolError,
                    std::string("expected ") + frameTypeName(ok_type) +
                        " reply, got " + frameTypeName(frame.type));
            }
            Reply reply;
            reply.frame = std::move(frame);
            return reply;
        }

        // NeedMore: pull bytes within the remaining deadline.
        const int remaining = remainingMs(start, deadline_ms);
        if (remaining <= 0) {
            disconnect();
            return makeError(ErrorCode::DeadlineExceeded,
                             "request deadline expired awaiting reply " +
                                 std::to_string(id));
        }
        auto received = stream_->recvSome(buf, sizeof(buf), remaining);
        if (!received) {
            disconnect();
            return received.error();
        }
        if (*received == 0) {
            disconnect();
            return makeError(ErrorCode::ConnectionLost,
                             "connection closed awaiting reply " +
                                 std::to_string(id));
        }
        reader_.feed(buf, *received);
    }
}

Expected<Frame>
NetClient::roundTrip(FrameType type, std::string payload,
                     FrameType ok_type)
{
    Error last = makeError(ErrorCode::ConnectionLost, "never attempted");
    for (unsigned attempt = 1; attempt <= config_.maxAttempts;
         ++attempt) {
        if (attempt > 1) {
            ++counters_.retries;
            backoff(attempt - 1);
        }
        if (auto connected = ensureConnected(); !connected) {
            last = std::move(connected.error());
            if (!isTransportRetryable(last.code()))
                break;
            continue;
        }
        const std::uint64_t id = nextId_++;
        if (auto sent = sendFrame(type, id, payload); !sent) {
            last = std::move(sent.error());
            if (!isTransportRetryable(last.code()))
                break;
            continue;
        }
        auto reply = awaitReply(id, ok_type, config_.requestDeadlineMs);
        if (!reply) {
            last = std::move(reply.error());
            if (!isTransportRetryable(last.code()))
                break;
            continue;
        }
        if (reply->isError)
            return std::move(reply->serverError);
        return std::move(reply->frame);
    }
    ++counters_.transportErrors;
    return std::move(last).withContext(
        "after " + std::to_string(config_.maxAttempts) + " attempts");
}

Expected<Prediction>
NetClient::predict(const LoadInfo &info)
{
    auto reply = roundTrip(FrameType::Predict,
                           encodePredictRequest(info),
                           FrameType::PredictOk);
    if (!reply)
        return std::move(reply.error()).withContext("predict");
    std::uint64_t pc = 0;
    Prediction pred;
    if (!decodePredictResponse(reply->payload, pc, pred)) {
        disconnect();
        return makeError(ErrorCode::ProtocolError,
                         "malformed PredictOk payload");
    }
    if (pc != info.pc) {
        ++counters_.wrongReplies;
        disconnect();
        return makeError(ErrorCode::ProtocolError,
                         "PredictOk echoes pc " + std::to_string(pc) +
                             " for request pc " +
                             std::to_string(info.pc));
    }
    ++counters_.predictsOk;
    return pred;
}

Expected<void>
NetClient::train(const LoadInfo &info, std::uint64_t actual_addr,
                 const Prediction &pred)
{
    auto id = sendTrain(info, actual_addr, pred);
    if (!id)
        return std::move(id.error());
    return awaitTrain(*id);
}

Expected<std::uint64_t>
NetClient::sendTrain(const LoadInfo &info, std::uint64_t actual_addr,
                     const Prediction &pred)
{
    // One attempt, ever: a transport failure after the frame left
    // leaves the train's fate unknown, and re-sending could apply it
    // twice. Connection setup itself has not sent anything yet, so it
    // may retry like any other operation.
    Error last = makeError(ErrorCode::ConnectionLost, "never attempted");
    bool connected_ok = false;
    for (unsigned attempt = 1; attempt <= config_.maxAttempts;
         ++attempt) {
        if (attempt > 1) {
            ++counters_.retries;
            backoff(attempt - 1);
        }
        if (auto connected = ensureConnected(); !connected) {
            last = std::move(connected.error());
            if (!isTransportRetryable(last.code()))
                break;
            continue;
        }
        connected_ok = true;
        break;
    }
    if (!connected_ok) {
        ++counters_.transportErrors;
        return std::move(last).withContext("train (never sent)");
    }

    const std::uint64_t id = nextId_++;
    if (auto sent = sendFrame(
            FrameType::Train, id,
            encodeTrainRequest(info, actual_addr, pred));
        !sent) {
        ++counters_.transportErrors;
        return std::move(sent.error())
            .withContext("train (outcome unknown, never retried)");
    }
    return id;
}

Expected<void>
NetClient::awaitTrain(std::uint64_t id)
{
    if (!stream_ || id < connectionFirstId_) {
        ++counters_.transportErrors;
        return makeError(ErrorCode::ConnectionLost,
                         "connection lost before reply " +
                             std::to_string(id))
            .withContext("train (outcome unknown, never retried)");
    }
    auto reply = awaitReply(id, FrameType::TrainOk,
                            config_.requestDeadlineMs);
    if (!reply) {
        ++counters_.transportErrors;
        return std::move(reply.error())
            .withContext("train (outcome unknown, never retried)");
    }
    if (reply->isError)
        return std::move(reply->serverError).withContext("train");
    ++counters_.trainsOk;
    return ok();
}

Expected<void>
NetClient::ping()
{
    auto reply = roundTrip(FrameType::Ping, {}, FrameType::Pong);
    if (!reply)
        return std::move(reply.error()).withContext("ping");
    return ok();
}

Expected<ServiceWireStats>
NetClient::stats()
{
    auto reply = roundTrip(FrameType::Stats, {}, FrameType::StatsOk);
    if (!reply)
        return std::move(reply.error()).withContext("stats");
    ServiceWireStats stats;
    if (!decodeServiceStats(reply->payload, stats)) {
        disconnect();
        return makeError(ErrorCode::ProtocolError,
                         "malformed StatsOk payload");
    }
    return stats;
}

Expected<std::string>
NetClient::fetchSnapshot(std::uint32_t shard)
{
    auto reply = roundTrip(FrameType::SnapshotFetch,
                           encodeSnapshotRequest(shard),
                           FrameType::SnapshotData);
    if (!reply)
        return std::move(reply.error()).withContext("fetchSnapshot");
    std::uint32_t got_shard = 0;
    std::string bytes;
    if (!decodeSnapshotData(reply->payload, got_shard, bytes) ||
        got_shard != shard) {
        disconnect();
        return makeError(ErrorCode::ProtocolError,
                         "malformed SnapshotData payload");
    }
    return bytes;
}

Expected<std::pair<std::uint32_t, bool>>
NetClient::installSnapshot(std::uint32_t shard, std::string_view bytes)
{
    auto reply = roundTrip(FrameType::SnapshotInstall,
                           encodeSnapshotData(shard, bytes),
                           FrameType::SnapshotInstallOk);
    if (!reply)
        return std::move(reply.error()).withContext("installSnapshot");
    std::uint32_t restored = 0;
    bool salvaged = false;
    if (!decodeSnapshotInstallOk(reply->payload, restored, salvaged)) {
        disconnect();
        return makeError(ErrorCode::ProtocolError,
                         "malformed SnapshotInstallOk payload");
    }
    return std::make_pair(restored, salvaged);
}

Expected<void>
NetClient::requestShutdown()
{
    auto reply = roundTrip(FrameType::Shutdown, {},
                           FrameType::ShutdownOk);
    if (!reply)
        return std::move(reply.error()).withContext("requestShutdown");
    return ok();
}

Expected<std::string>
NetClient::fetchObs(bool include_timing)
{
    auto reply = roundTrip(FrameType::ObsFetch,
                           encodeObsFetch(include_timing),
                           FrameType::ObsOk);
    if (!reply)
        return std::move(reply.error()).withContext("fetchObs");
    return std::move(reply->payload);
}

} // namespace clap::net
