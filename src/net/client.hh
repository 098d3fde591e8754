/**
 * @file
 * Client library for the prediction gateway: connects (UDS/TCP),
 * handshakes, and exchanges CRC-framed requests with per-request
 * deadlines, so every call returns a correct reply or a structured
 * error — never a hang and never a silently wrong result.
 *
 * Failure policy, in order of the guarantees it preserves:
 *
 *   - Reconnect: a lost/refused connection is retried with capped
 *     exponential backoff + seeded jitter (thundering-herd hygiene),
 *     up to ClientConfig::maxAttempts per operation.
 *   - Retry: *idempotent-at-the-protocol-level* requests (predict,
 *     ping, stats, snapshot fetch/install) are re-sent after a
 *     transport failure. A retried predict may touch the predictor's
 *     LRU twice — that is accepted serving semantics, the same class
 *     of perturbation as a shed request — and the reply is still a
 *     correct prediction for the request.
 *   - Never retry trains: a train whose connection died mid-exchange
 *     may or may not have been applied; re-sending it could double-
 *     train the predictor. train() makes exactly one send attempt and
 *     reports a typed error ("outcome unknown") on any transport
 *     failure. The caller — who knows whether its training stream
 *     tolerates a gap — decides.
 *   - A server ErrorReply is a *final answer*, not a transport
 *     failure: it is returned as-is (its code says whether the caller
 *     may retry).
 *
 * Pipelining: train() is sendTrain() then awaitTrain(). A caller may
 * send several trains before it awaits the first reply (the server
 * answers one connection in order), provided it awaits them in send
 * order and makes no other request in between; the replica gateway
 * sends a train to every replica's client first, so the waits
 * overlap. The split keeps the never-retry rule: sendTrain() retries
 * only the connect, and awaitTrain() never re-sends.
 *
 * Every PredictOk carries the request's PC; a mismatch counts as a
 * wrong reply (counters().wrongReplies) and drops the connection —
 * the invariant bench_netchaos asserts stays at zero under chaos.
 */

#ifndef CLAP_NET_CLIENT_HH
#define CLAP_NET_CLIENT_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "core/predictor.hh"
#include "net/socket.hh"
#include "net/wire.hh"
#include "util/error.hh"
#include "util/rng.hh"

namespace clap::net
{

/** Client knobs. */
struct ClientConfig
{
    /// Endpoint spec ("unix:/tmp/clapd.sock" or "tcp:127.0.0.1:PORT").
    std::string endpoint;

    std::string clientName = "clap-client";

    /// Budget for one connect + handshake; must be >= 1.
    int connectDeadlineMs = 2000;

    /// Budget for one request's round trip (send + await reply); must
    /// be >= 1.
    int requestDeadlineMs = 2000;

    /// Attempts per operation (first try + retries/reconnects).
    unsigned maxAttempts = 4;

    /// Exponential backoff between attempts: base doubles per retry,
    /// capped, then jittered to [cap/2, cap] with the seeded Rng.
    int backoffBaseMs = 5;
    int backoffMaxMs = 200;
    std::uint64_t jitterSeed = 0x6a77;

    /// Fault-injection hook: wraps each freshly connected stream
    /// (NetChaos::wrap). Null = no decoration.
    std::function<std::unique_ptr<Stream>(std::unique_ptr<Stream>)>
        decorate;

    /** Structural sanity checks. */
    Expected<void>
    validate() const
    {
        if (endpoint.empty())
            return makeError(ErrorCode::InvalidConfig,
                             "ClientConfig: endpoint must be non-empty");
        if (maxAttempts == 0)
            return makeError(ErrorCode::InvalidConfig,
                             "ClientConfig: maxAttempts must be >= 1");
        if (connectDeadlineMs < 1 || requestDeadlineMs < 1)
            return makeError(ErrorCode::InvalidConfig,
                             "ClientConfig: connectDeadlineMs and "
                             "requestDeadlineMs must be >= 1");
        if (backoffBaseMs < 0 || backoffMaxMs < backoffBaseMs)
            return makeError(
                ErrorCode::InvalidConfig,
                "ClientConfig: need 0 <= backoffBaseMs <= backoffMaxMs");
        return ok();
    }
};

/** Cumulative client-side tallies. All deterministic under a seeded
 *  chaos schedule — they are what bench_netchaos reports. */
struct ClientCounters
{
    std::uint64_t connects = 0;       ///< successful handshakes
    std::uint64_t connectFailures = 0;
    std::uint64_t retries = 0;        ///< re-attempts after transport loss
    std::uint64_t predictsOk = 0;
    std::uint64_t trainsOk = 0;
    std::uint64_t errorReplies = 0;   ///< structured server errors
    std::uint64_t transportErrors = 0;///< ops that exhausted attempts
    std::uint64_t corruptReplies = 0; ///< reply frames failing CRC/frame
    std::uint64_t wrongReplies = 0;   ///< PC echo mismatch (must stay 0)
    std::uint64_t goAways = 0;        ///< server-initiated drops seen
};

class NetClient
{
  public:
    explicit NetClient(const ClientConfig &config);
    ~NetClient();

    NetClient(const NetClient &) = delete;
    NetClient &operator=(const NetClient &) = delete;

    /// @name Request API
    /// @{

    Expected<Prediction> predict(const LoadInfo &info);

    /** Exactly one attempt; never retried (see file comment).
     *  sendTrain() then awaitTrain(). */
    Expected<void> train(const LoadInfo &info, std::uint64_t actual_addr,
                         const Prediction &pred);

    /** The send half of train(): connect (with the usual connect
     *  retries), then send the frame exactly once. Returns the
     *  request id to pass to awaitTrain(). */
    Expected<std::uint64_t> sendTrain(const LoadInfo &info,
                                      std::uint64_t actual_addr,
                                      const Prediction &pred);

    /** The await half of train(): read the TrainOk for @p id within
     *  the request deadline. A connection lost since the send fails
     *  with the outcome unknown; nothing is re-sent. */
    Expected<void> awaitTrain(std::uint64_t id);

    Expected<void> ping();
    Expected<ServiceWireStats> stats();
    Expected<std::string> fetchSnapshot(std::uint32_t shard);

    /** Install @p bytes into the remote @p shard. Returns (sections
     *  restored, salvaged). Restores are idempotent, so this retries
     *  like any other idempotent request. */
    Expected<std::pair<std::uint32_t, bool>>
    installSnapshot(std::uint32_t shard, std::string_view bytes);

    /** Ask the server process to begin shutdown. */
    Expected<void> requestShutdown();

    /** Fetch the server's observability scrape (FrameHandler::obsJson)
     *  as a JSON document. @p include_timing false asks the server to
     *  omit wall-clock sections, making the document byte-stable
     *  across same-seed runs. */
    Expected<std::string> fetchObs(bool include_timing = true);
    /// @}

    /// @name Client-held front-end history (mirrors ClientSession)
    /// @{
    void observeBranch(bool taken) { ghr_ = (ghr_ << 1) | (taken ? 1 : 0); }
    void observeCall(std::uint64_t pc) { path_ = (path_ << 4) ^ (pc >> 2); }

    std::uint64_t ghr() const { return ghr_; }
    std::uint64_t pathHist() const { return path_; }

    /** Take over another client's history bit for bit — the migration
     *  handoff: the session context survives a server switch. */
    void
    adoptHistory(std::uint64_t ghr, std::uint64_t path_hist)
    {
        ghr_ = ghr;
        path_ = path_hist;
    }

    LoadInfo
    makeInfo(std::uint64_t pc, std::int32_t imm_offset) const
    {
        LoadInfo info;
        info.pc = pc;
        info.immOffset = imm_offset;
        info.ghr = ghr_;
        info.pathHist = path_;
        return info;
    }
    /// @}

    /** Drop the current connection (the next request reconnects). */
    void disconnect();

    bool connected() const { return stream_ != nullptr; }

    /** Server trace-clock epoch minus ours, in ns — how far ahead the
     *  server's span timestamps run. 0 until the first handshake. */
    std::int64_t serverClockOffsetNs() const { return serverClockOffsetNs_; }

    const ClientCounters &counters() const { return counters_; }

  private:
    /** Connect + decorate + Hello/HelloOk. */
    Expected<void> ensureConnected();

    /** Send one frame on the current connection, carrying the ambient
     *  trace context when it is sampled. */
    Expected<void> sendFrame(FrameType type, std::uint64_t id,
                             std::string payload);

    /**
     * Await the reply to @p id within the deadline. GoAway, id
     * mismatch, unexpected type, and corrupt frames all drop the
     * connection and report a transport-class error (the Expected is
     * the transport outcome); a well-formed ErrorReply is a *success*
     * at the transport level and comes back as Reply::isError.
     */
    struct Reply
    {
        bool isError = false; ///< frame was an ErrorReply
        Error serverError;    ///< valid when isError
        Frame frame;          ///< valid when !isError
    };
    Expected<Reply> awaitReply(std::uint64_t id, FrameType ok_type,
                               int deadline_ms);

    /** Generic retrying round trip for idempotent requests. */
    Expected<Frame> roundTrip(FrameType type, std::string payload,
                              FrameType ok_type);

    void backoff(unsigned attempt);

    ClientConfig config_;
    Endpoint endpoint_;
    std::unique_ptr<Stream> stream_;
    FrameReader reader_;
    std::uint64_t nextId_ = 1;
    /// First request id sent on the current connection; an older id's
    /// reply went down with an earlier connection.
    std::uint64_t connectionFirstId_ = 1;
    Rng jitter_;
    ClientCounters counters_;
    std::int64_t serverClockOffsetNs_ = 0;

    std::uint64_t ghr_ = 0;
    std::uint64_t path_ = 0;
};

} // namespace clap::net

#endif // CLAP_NET_CLIENT_HH
