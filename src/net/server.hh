/**
 * @file
 * Network gateway over PredictionService: accepts UDS/TCP connections
 * (net/socket.hh), speaks the CRC-framed wire protocol (net/wire.hh),
 * and assumes failure as the common case — every connection has read
 * and write deadlines (a stalled or dead peer costs one deadline,
 * never a wedged thread), and corrupt frames drop the connection with
 * a best-effort GoAway instead of ever reaching the predictor.
 *
 * The connection budget (ServerConfig::maxConnections) is the one
 * load bound: a connection over it is greeted with a GoAway carrying
 * Overloaded and closed before any request is read. A connection
 * thread runs one request to completion before it reads the next, so
 * the budget also bounds the requests in flight and, behind clapd,
 * the callers on any shard.
 *
 * Threading: one acceptor thread plus one thread per connection
 * (connections are bounded and cheap relative to predictor shards;
 * a per-connection thread keeps the deadline logic synchronous and
 * obviously hang-free). A connection thread runs each request itself,
 * under the target shard's lock. stop() closes the listener, shuts
 * every connection's socket (waking blocked reads), and joins.
 */

#ifndef CLAP_NET_SERVER_HH
#define CLAP_NET_SERVER_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/socket.hh"
#include "net/wire.hh"
#include "serve/service.hh"
#include "util/error.hh"

namespace clap::net
{

/** Gateway knobs. */
struct ServerConfig
{
    /// Endpoint spec ("unix:/tmp/clapd.sock" or "tcp:127.0.0.1:0").
    std::string endpoint = "unix:/tmp/clapd.sock";

    /// Name sent in HelloOk frames (clapd, clapr, ...).
    std::string serverName = "clapd";

    /// Concurrent connections; one over budget is greeted with a
    /// GoAway carrying Overloaded and closed before any request is
    /// read. Each connection runs one request at a time, so this also
    /// bounds the requests in flight.
    unsigned maxConnections = 32;

    /// A connection mid-frame for longer than this is dropped
    /// (slow-sender protection); idle connections are not affected.
    /// Must be >= 1.
    int readDeadlineMs = 2000;

    /// A response write blocked on the peer's receive window for
    /// longer than this drops the connection (slow-reader protection).
    /// Must be >= 1.
    int writeDeadlineMs = 2000;

    /** Structural sanity checks; call before building a server. */
    Expected<void>
    validate() const
    {
        if (endpoint.empty())
            return makeError(ErrorCode::InvalidConfig,
                             "ServerConfig: endpoint must be non-empty");
        if (maxConnections == 0)
            return makeError(ErrorCode::InvalidConfig,
                             "ServerConfig: maxConnections must be >= 1");
        if (readDeadlineMs < 1 || writeDeadlineMs < 1)
            return makeError(ErrorCode::InvalidConfig,
                             "ServerConfig: readDeadlineMs and "
                             "writeDeadlineMs must be >= 1");
        return ok();
    }
};

/** Cumulative gateway counters (atomic; readable while serving). */
struct ServerCounters
{
    std::uint64_t accepted = 0;      ///< connections accepted
    std::uint64_t turnedAway = 0;    ///< connections over budget
    std::uint64_t requests = 0;      ///< request frames served
    std::uint64_t corruptFrames = 0; ///< connections dropped on Corrupt
    std::uint64_t deadlineDrops = 0; ///< connections dropped on stall
    std::uint64_t errorReplies = 0;  ///< ErrorReply frames sent
};

/**
 * One request frame's outcome, as decided by a FrameHandler. Either a
 * typed reply payload or a structured error (sent as ErrorReply);
 * @c drop additionally closes the connection after the send — the
 * handler's verdict that the peer is not worth keeping.
 */
struct HandlerReply
{
    FrameType type = FrameType::ErrorReply;
    std::string payload;
    bool isError = false;
    Error error;
    bool drop = false;

    static HandlerReply
    make(FrameType type, std::string payload = {})
    {
        HandlerReply reply;
        reply.type = type;
        reply.payload = std::move(payload);
        return reply;
    }

    static HandlerReply
    fail(Error error, bool drop = false)
    {
        HandlerReply reply;
        reply.isError = true;
        reply.error = std::move(error);
        reply.drop = drop;
        return reply;
    }
};

/**
 * What NetServer's transport layer delegates request frames to. The
 * transport owns everything failure-shaped about the byte stream —
 * the connection budget, deadlines, CRC poisoning, GoAway, the Hello
 * handshake, Shutdown — and hands every other request frame here.
 * Implementations: ServiceFrameHandler (one local PredictionService,
 * the clapd shape) and replica::ReplicaGateway (N remote replicas,
 * the clapr shape).
 *
 * handle() is called concurrently from per-connection threads and
 * must be thread-safe.
 */
class FrameHandler
{
  public:
    virtual ~FrameHandler() = default;
    virtual HandlerReply handle(const Frame &frame) = 0;

    /**
     * The scrape document served for an ObsFetch frame: a JSON object
     * with the server name and the metrics registry, timing sections
     * included only when @p include_timing (see obs/scrape.hh).
     * Overrides append handler-specific sections — per-shard predictor
     * telemetry (ServiceFrameHandler), the fleet view (ReplicaGateway).
     */
    virtual std::string obsJson(bool include_timing,
                                std::string_view server_name);
};

/** The classic clapd request handler: one local PredictionService. */
class ServiceFrameHandler : public FrameHandler
{
  public:
    explicit ServiceFrameHandler(PredictionService &service);

    HandlerReply handle(const Frame &frame) override;

    /** Registry scrape plus per-shard predictor telemetry. */
    std::string obsJson(bool include_timing,
                        std::string_view server_name) override;

  private:
    PredictionService &service_;
};

class NetServer
{
  public:
    /**
     * Front an arbitrary FrameHandler (the replica gateway path).
     * @p handler must outlive the server.
     */
    NetServer(FrameHandler &handler, const ServerConfig &config);

    /**
     * Convenience: front a local PredictionService through an owned
     * ServiceFrameHandler.
     */
    NetServer(PredictionService &service, const ServerConfig &config);
    ~NetServer();

    NetServer(const NetServer &) = delete;
    NetServer &operator=(const NetServer &) = delete;

    /** Bind, listen, and start the acceptor thread. */
    Expected<void> start();

    /** Close the listener and every connection; join all threads.
     *  Idempotent; also run by the destructor. */
    void stop();

    /** Actual bound endpoint (resolves tcp port 0). @pre start() ok */
    const Endpoint &boundEndpoint() const;

    /** True once a client's Shutdown frame was honored. The owner
     *  (clapd's main loop, the migration driver) polls this and calls
     *  stop() — the connection thread cannot join itself. */
    bool shutdownRequested() const
    {
        return shutdownRequested_.load(std::memory_order_acquire);
    }

    ServerCounters counters() const;

  private:
    struct Connection
    {
        std::unique_ptr<SocketStream> stream;
        std::thread thread;
        std::atomic<bool> done{false};
    };

    void acceptLoop();
    void serveConnection(Connection &conn);
    /** One request frame -> one response frame (or GoAway=false).
     *  @p decode_ns is what FrameReader::next spent extracting the
     *  frame — the first stage of the request's latency breakdown. */
    bool handleFrame(Stream &stream, const Frame &frame,
                     std::uint64_t decode_ns);
    bool sendFrame(Stream &stream, FrameType type, std::uint64_t id,
                   std::string payload);
    bool sendError(Stream &stream, std::uint64_t id, const Error &error);
    void reapFinished();

    FrameHandler *handler_;
    /// Set by the PredictionService convenience constructor.
    std::unique_ptr<ServiceFrameHandler> ownedHandler_;
    ServerConfig config_;
    Listener listener_;
    std::thread acceptor_;
    std::atomic<bool> stopping_{false};
    std::atomic<bool> shutdownRequested_{false};

    std::mutex connMutex_;
    std::vector<std::unique_ptr<Connection>> connections_;

    /// @name Counter cells (relaxed; snapshotted by counters())
    /// @{
    std::atomic<std::uint64_t> accepted_{0};
    std::atomic<std::uint64_t> turnedAway_{0};
    std::atomic<std::uint64_t> requests_{0};
    std::atomic<std::uint64_t> corruptFrames_{0};
    std::atomic<std::uint64_t> deadlineDrops_{0};
    std::atomic<std::uint64_t> errorReplies_{0};
    /// @}
};

} // namespace clap::net

#endif // CLAP_NET_SERVER_HH
