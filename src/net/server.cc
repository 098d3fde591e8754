#include "net/server.hh"

#include <chrono>
#include <optional>
#include <utility>

#include "core/telemetry.hh"
#include "obs/metrics.hh"
#include "obs/scrape.hh"
#include "obs/stage_timer.hh"
#include "obs/trace_events.hh"
#include "util/json.hh"

namespace clap::net
{

namespace
{

/// Accept-loop poll slice: how often a blocked accept rechecks the
/// stop flag. Also the receive poll slice inside connections.
constexpr int pollSliceMs = 50;

/**
 * Per-request stage decomposition (net.stage.*). The stages are
 * constructed from consecutive stamps of one clock, with the
 * not-otherwise-attributed gap recorded as an explicit residual, so
 * the conservation identity
 *
 *   sum(total) == sum(decode) + sum(handle) + sum(encode)
 *                 + sum(residual)
 *
 * holds *exactly* over any scrape (test_net asserts it).
 */
void
recordRequestStages(std::uint64_t decode_ns, std::uint64_t entered_ns,
                    std::uint64_t handle_start_ns,
                    std::uint64_t handle_end_ns, std::uint64_t done_ns)
{
    static obs::Histogram &decode =
        obs::histogram("net.stage.decode_ns");
    static obs::Histogram &handle =
        obs::histogram("net.stage.handle_ns");
    static obs::Histogram &encode =
        obs::histogram("net.stage.encode_ns");
    static obs::Histogram &residual =
        obs::histogram("net.stage.residual_ns");
    static obs::Histogram &total = obs::histogram("net.stage.total_ns");

    const std::uint64_t handleNs = handle_end_ns - handle_start_ns;
    const std::uint64_t encodeNs = done_ns - handle_end_ns;
    const std::uint64_t residualNs = handle_start_ns - entered_ns;
    decode.record(decode_ns);
    handle.record(handleNs);
    encode.record(encodeNs);
    residual.record(residualNs);
    total.record(decode_ns + handleNs + encodeNs + residualNs);
}

} // namespace

std::string
FrameHandler::obsJson(bool include_timing, std::string_view server_name)
{
    std::string json = "{\n  \"server\": \"";
    json += jsonEscape(std::string(server_name));
    json += "\",\n  ";
    json += obs::scrapeSectionsJson(include_timing);
    json += "\n}\n";
    return json;
}

ServiceFrameHandler::ServiceFrameHandler(PredictionService &service)
    : service_(service)
{
}

HandlerReply
ServiceFrameHandler::handle(const Frame &frame)
{
    switch (frame.type) {
      case FrameType::Ping:
        return HandlerReply::make(FrameType::Pong);

      case FrameType::Predict: {
        LoadInfo info;
        if (!decodePredictRequest(frame.payload, info)) {
            return HandlerReply::fail(
                makeError(ErrorCode::ProtocolError,
                          "malformed Predict payload"));
        }
        auto pred = service_.predict(info);
        if (!pred)
            return HandlerReply::fail(pred.error());
        return HandlerReply::make(
            FrameType::PredictOk,
            encodePredictResponse(info.pc, *pred));
      }

      case FrameType::Train: {
        LoadInfo info;
        std::uint64_t actual = 0;
        Prediction pred;
        if (!decodeTrainRequest(frame.payload, info, actual, pred)) {
            return HandlerReply::fail(
                makeError(ErrorCode::ProtocolError,
                          "malformed Train payload"));
        }
        auto trained = service_.train(info, actual, pred);
        if (!trained)
            return HandlerReply::fail(trained.error());
        return HandlerReply::make(FrameType::TrainOk);
      }

      case FrameType::Stats: {
        ServiceWireStats stats;
        stats.aggregate = service_.aggregateStats();
        for (const ShardSnapshot &snap : service_.snapshot()) {
            ShardWireStats shard;
            shard.predicts = snap.predicts;
            shard.trains = snap.trains;
            shard.stats = snap.stats;
            stats.shards.push_back(shard);
        }
        return HandlerReply::make(FrameType::StatsOk,
                                  encodeServiceStats(stats));
      }

      case FrameType::SnapshotFetch: {
        std::uint32_t shard = 0;
        if (!decodeSnapshotRequest(frame.payload, shard)) {
            return HandlerReply::fail(
                makeError(ErrorCode::ProtocolError,
                          "malformed SnapshotFetch"));
        }
        if (shard >= service_.config().shards) {
            return HandlerReply::fail(
                makeError(ErrorCode::InvalidArgument,
                          "shard " + std::to_string(shard) +
                              " out of range"));
        }
        auto captured = service_.captureShardState(shard);
        if (!captured)
            return HandlerReply::fail(captured.error());
        return HandlerReply::make(FrameType::SnapshotData,
                                  encodeSnapshotData(shard, *captured));
      }

      case FrameType::SnapshotInstall: {
        std::uint32_t shard = 0;
        std::string bytes;
        if (!decodeSnapshotData(frame.payload, shard, bytes)) {
            return HandlerReply::fail(
                makeError(ErrorCode::ProtocolError,
                          "malformed SnapshotInstall"));
        }
        if (shard >= service_.config().shards) {
            return HandlerReply::fail(
                makeError(ErrorCode::InvalidArgument,
                          "shard " + std::to_string(shard) +
                              " out of range"));
        }
        auto restored = service_.restoreShardState(shard, bytes);
        if (!restored)
            return HandlerReply::fail(restored.error());
        return HandlerReply::make(
            FrameType::SnapshotInstallOk,
            encodeSnapshotInstallOk(restored->restored,
                                    restored->salvaged));
      }

      default: {
        // A response-typed or unknown-but-valid frame from a client is
        // a protocol violation serious enough to drop the connection:
        // the peer is confused about its own role.
        return HandlerReply::fail(
            makeError(ErrorCode::ProtocolError,
                      std::string("unexpected frame ") +
                          frameTypeName(frame.type)),
            /*drop=*/true);
      }
    }
}

std::string
ServiceFrameHandler::obsJson(bool include_timing,
                             std::string_view server_name)
{
    std::string json = "{\n  \"server\": \"";
    json += jsonEscape(std::string(server_name));
    json += "\",\n  ";
    json += obs::scrapeSectionsJson(include_timing);
    // Per-predictor telemetry, one entry per shard, in shard order —
    // the "per-predictor telemetry" half of the scrape contract.
    json += ",\n  \"shards\": [";
    bool first = true;
    for (const ShardSnapshot &snap : service_.snapshot()) {
        json += first ? "\n" : ",\n";
        first = false;
        json += telemetryJson(snap.telemetry);
    }
    json += "]\n}\n";
    return json;
}

NetServer::NetServer(FrameHandler &handler, const ServerConfig &config)
    : handler_(&handler), config_(config)
{
}

NetServer::NetServer(PredictionService &service,
                     const ServerConfig &config)
    : handler_(nullptr), config_(config)
{
    ownedHandler_ = std::make_unique<ServiceFrameHandler>(service);
    handler_ = ownedHandler_.get();
}

NetServer::~NetServer()
{
    stop();
}

Expected<void>
NetServer::start()
{
    if (auto valid = config_.validate(); !valid)
        return valid;
    auto endpoint = parseEndpoint(config_.endpoint);
    if (!endpoint)
        return std::move(endpoint.error())
            .withContext("starting gateway");
    if (auto listening = listener_.listen(*endpoint); !listening)
        return std::move(listening.error())
            .withContext("starting gateway");
    stopping_.store(false, std::memory_order_release);
    acceptor_ = std::thread([this] { acceptLoop(); });
    return ok();
}

void
NetServer::stop()
{
    // Raise the flag unconditionally; even a second stop() still runs
    // the join path below (stop is idempotent, joins are guarded).
    stopping_.store(true, std::memory_order_release);
    listener_.close();
    if (acceptor_.joinable())
        acceptor_.join();
    std::vector<std::unique_ptr<Connection>> conns;
    {
        std::lock_guard<std::mutex> lock(connMutex_);
        conns.swap(connections_);
    }
    for (auto &conn : conns) {
        if (conn->stream)
            conn->stream->shutdownBoth(); // wake a blocked recv
    }
    for (auto &conn : conns) {
        if (conn->thread.joinable())
            conn->thread.join();
    }
}

const Endpoint &
NetServer::boundEndpoint() const
{
    return listener_.boundEndpoint();
}

ServerCounters
NetServer::counters() const
{
    ServerCounters out;
    out.accepted = accepted_.load(std::memory_order_relaxed);
    out.turnedAway = turnedAway_.load(std::memory_order_relaxed);
    out.requests = requests_.load(std::memory_order_relaxed);
    out.corruptFrames = corruptFrames_.load(std::memory_order_relaxed);
    out.deadlineDrops = deadlineDrops_.load(std::memory_order_relaxed);
    out.errorReplies = errorReplies_.load(std::memory_order_relaxed);
    return out;
}

void
NetServer::reapFinished()
{
    std::lock_guard<std::mutex> lock(connMutex_);
    for (auto it = connections_.begin(); it != connections_.end();) {
        if ((*it)->done.load(std::memory_order_acquire)) {
            if ((*it)->thread.joinable())
                (*it)->thread.join();
            it = connections_.erase(it);
        } else {
            ++it;
        }
    }
}

void
NetServer::acceptLoop()
{
    while (!stopping_.load(std::memory_order_acquire)) {
        auto conn = listener_.accept(pollSliceMs);
        if (!conn) {
            if (conn.error().code() == ErrorCode::Shutdown)
                return;
            reapFinished();
            continue; // deadline slice or transient accept error
        }
        reapFinished();

        std::size_t open;
        {
            std::lock_guard<std::mutex> lock(connMutex_);
            open = connections_.size();
        }
        if (open >= config_.maxConnections) {
            // Over the connection budget: an explicit GoAway (best
            // effort) beats a silent close — the client learns this
            // was policy, not a crash, and backs off.
            turnedAway_.fetch_add(1, std::memory_order_relaxed);
            static obs::Counter &turned =
                obs::counter("net.conn_turned_away");
            turned.add();
            Frame goaway;
            goaway.type = FrameType::GoAway;
            goaway.payload = encodeErrorPayload(
                makeError(ErrorCode::Overloaded,
                          "gateway connection budget exhausted"));
            const std::string bytes = encodeFrame(goaway);
            (void)(*conn)->sendAll(bytes.data(), bytes.size(),
                                   config_.writeDeadlineMs);
            continue; // stream destructor closes the socket
        }

        accepted_.fetch_add(1, std::memory_order_relaxed);
        static obs::Counter &acceptedConns =
            obs::counter("net.connections");
        acceptedConns.add();

        auto connection = std::make_unique<Connection>();
        connection->stream = std::move(*conn);
        Connection *raw = connection.get();
        {
            std::lock_guard<std::mutex> lock(connMutex_);
            connections_.push_back(std::move(connection));
        }
        raw->thread = std::thread([this, raw] {
            serveConnection(*raw);
            raw->done.store(true, std::memory_order_release);
        });
    }
}

void
NetServer::serveConnection(Connection &conn)
{
    using Clock = std::chrono::steady_clock;
    Stream &stream = *conn.stream;
    FrameReader reader;
    char buf[16 * 1024];
    bool midFrame = false;
    Clock::time_point midFrameSince{};

    while (!stopping_.load(std::memory_order_acquire)) {
        auto received = stream.recvSome(buf, sizeof(buf), pollSliceMs);
        if (!received) {
            if (received.error().code() == ErrorCode::DeadlineExceeded) {
                // Idle is fine; a *partial frame* that stalls past the
                // read deadline is a slow (or chaos-stalled) sender.
                if (midFrame &&
                    Clock::now() - midFrameSince >
                        std::chrono::milliseconds(
                            config_.readDeadlineMs)) {
                    deadlineDrops_.fetch_add(1,
                                             std::memory_order_relaxed);
                    static obs::Counter &drops =
                        obs::counter("net.deadline_drops");
                    drops.add();
                    return;
                }
                continue;
            }
            return; // ConnectionLost / IoError: nothing to salvage
        }
        if (*received == 0)
            return; // orderly EOF
        reader.feed(buf, *received);

        Frame frame;
        Error error;
        for (;;) {
            const std::uint64_t decodeStartNs = obs::stageNowNs();
            const auto status = reader.next(frame, error);
            const std::uint64_t decodeNs =
                obs::stageNowNs() - decodeStartNs;
            if (status == FrameReader::Status::NeedMore)
                break;
            if (status == FrameReader::Status::Corrupt) {
                corruptFrames_.fetch_add(1, std::memory_order_relaxed);
                static obs::Counter &corrupt =
                    obs::counter("net.corrupt_frames");
                corrupt.add();
                // The stream is unsynchronized; a GoAway naming the
                // damage is the only honest reply left.
                Frame goaway;
                goaway.type = FrameType::GoAway;
                goaway.payload = encodeErrorPayload(
                    makeError(ErrorCode::ProtocolError,
                              "dropping connection: " + error.str()));
                const std::string bytes = encodeFrame(goaway);
                (void)stream.sendAll(bytes.data(), bytes.size(),
                                     config_.writeDeadlineMs);
                return;
            }
            if (!handleFrame(stream, frame, decodeNs))
                return;
        }
        if (reader.buffered() > 0) {
            if (!midFrame) {
                midFrame = true;
                midFrameSince = Clock::now();
            }
        } else {
            midFrame = false;
        }
    }
}

bool
NetServer::sendFrame(Stream &stream, FrameType type, std::uint64_t id,
                     std::string payload)
{
    Frame frame;
    frame.type = type;
    frame.id = id;
    frame.payload = std::move(payload);
    const std::string bytes = encodeFrame(frame);
    return static_cast<bool>(
        stream.sendAll(bytes.data(), bytes.size(),
                       config_.writeDeadlineMs));
}

bool
NetServer::sendError(Stream &stream, std::uint64_t id,
                     const Error &error)
{
    errorReplies_.fetch_add(1, std::memory_order_relaxed);
    return sendFrame(stream, FrameType::ErrorReply, id,
                     encodeErrorPayload(error));
}

bool
NetServer::handleFrame(Stream &stream, const Frame &frame,
                       std::uint64_t decode_ns)
{
    static obs::Counter &served = obs::counter("net.requests");

    requests_.fetch_add(1, std::memory_order_relaxed);
    served.add();

    switch (frame.type) {
      case FrameType::Hello: {
        // The handshake is transport policy, not request semantics:
        // every handler behind this server speaks the same version.
        std::uint16_t version = 0;
        std::string name;
        if (!decodeHello(frame.payload, version, name)) {
            return sendError(stream, frame.id,
                             makeError(ErrorCode::ProtocolError,
                                       "malformed Hello payload"));
        }
        if (version != wireVersion) {
            return sendError(
                stream, frame.id,
                makeError(ErrorCode::BadVersion,
                          "client speaks wire version " +
                              std::to_string(version) + ", server " +
                              std::to_string(wireVersion)));
        }
        // The reply carries our trace-clock epoch so the peer can
        // align merged span timelines.
        return sendFrame(stream, FrameType::HelloOk, frame.id,
                         encodeHelloOk(config_.serverName,
                                       obs::traceClockEpochUnixNs()));
      }

      case FrameType::Shutdown: {
        shutdownRequested_.store(true, std::memory_order_release);
        return sendFrame(stream, FrameType::ShutdownOk, frame.id, {});
      }

      case FrameType::ObsFetch: {
        // Scrapes are transport-level like the handshake: any handler
        // behind this server is remotely observable the same way.
        bool includeTiming = true;
        if (!decodeObsFetch(frame.payload, includeTiming)) {
            return sendError(stream, frame.id,
                             makeError(ErrorCode::ProtocolError,
                                       "malformed ObsFetch payload"));
        }
        return sendFrame(
            stream, FrameType::ObsOk, frame.id,
            handler_->obsJson(includeTiming, config_.serverName));
      }

      default: {
        const std::uint64_t enteredNs = obs::stageNowNs();
        // Adopt the frame's trace context for the handler call: spans
        // recorded below it (serve stages, replica fan-out clients)
        // chain under the sender's span, and a sampled context gets a
        // server-side span covering handle + encode.
        std::optional<obs::TraceScope> scope;
        std::optional<obs::Span> span;
        if (frame.trace.valid()) {
            scope.emplace(frame.trace);
            if (frame.trace.sampled && obs::traceEventsEnabled()) {
                span.emplace(std::string("net.") +
                                 frameTypeName(frame.type),
                             "net");
            }
        }
        const std::uint64_t handleStartNs = obs::stageNowNs();
        const HandlerReply reply = handler_->handle(frame);
        const std::uint64_t handleEndNs = obs::stageNowNs();
        bool sent;
        if (reply.isError)
            sent = sendError(stream, frame.id, reply.error);
        else
            sent = sendFrame(stream, reply.type, frame.id,
                             reply.payload);
        span.reset();
        scope.reset();
        recordRequestStages(decode_ns, enteredNs, handleStartNs,
                            handleEndNs, obs::stageNowNs());
        return sent && !reply.drop;
      }
    }
}

} // namespace clap::net
