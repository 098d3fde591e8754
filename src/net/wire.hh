/**
 * @file
 * Length-prefixed, CRC32-framed binary wire protocol of the
 * prediction service — the trace-v2 / runner-journal framing idiom
 * taken to a byte stream. Every frame is independently verifiable, so
 * a torn write, a flipped bit, or a desynchronized peer surfaces as a
 * structured ProtocolError at the frame boundary instead of a corrupt
 * prediction downstream.
 *
 * Frame layout (little-endian):
 *
 *   magic    u32   "CLNP"
 *   version  u16   2 (plain) or 5 = wireVersion (trace-context-prefixed)
 *   type     u16   FrameType
 *   id       u64   request id (echoed by the matching response)
 *   length   u32   payload bytes (<= maxFramePayload)
 *   hcrc     u32   CRC-32 over the 20 header bytes above
 *   payload  length bytes
 *   pcrc     u32   CRC-32 over the payload (present even when empty)
 *
 * The header version marks the payload shape of that one frame: a
 * frame that carries a distributed trace context (DESIGN.md §9) is
 * encoded at wireVersion, whose payload starts with a fixed 17-byte
 * prefix —
 *
 *   traceId       u64   0 is invalid (traced frames always carry one)
 *   parentSpanId  u64   the sender's span, parent of the receiver's
 *   flags         u8    bit 0: sampled
 *
 * — and everything after the prefix is the ordinary typed payload.
 * Untraced frames encode at version 2 with no prefix, so enabling
 * tracing cannot perturb untraced traffic. The protocol version
 * itself is agreed once per connection by the Hello handshake, which
 * accepts exactly wireVersion.
 *
 * The header carries its own CRC so a reader can reject a damaged
 * length field *before* trusting it to size a buffer; the payload CRC
 * catches bit flips inside the body. A reader that fails either check
 * cannot trust any later byte of the stream (the length that would
 * re-synchronize it is itself suspect), so frame corruption is
 * connection-fatal by design: the peer drops the connection and the
 * client's reconnect path takes over.
 *
 * Request/response pairing is by id: responses echo the request's id,
 * and a server answers the requests of one connection in order.
 * Errors travel as first-class ErrorReply frames carrying the
 * structured ErrorCode + message, so a client can branch on
 * retryability exactly as an in-process caller would on Expected<T>.
 */

#ifndef CLAP_NET_WIRE_HH
#define CLAP_NET_WIRE_HH

#include <cstdint>
#include <string>
#include <string_view>

#include "core/predictor.hh"
#include "obs/trace_context.hh"
#include "sim/metrics.hh"
#include "util/error.hh"

namespace clap::net
{

/** Frame magic: "CLNP" in little-endian byte order. */
constexpr std::uint32_t wireMagic = 0x504e4c43u;

/** The wire protocol version: the only one a Hello may carry, and
 *  the header version of a trace-context-prefixed frame. v2 added
 *  per-shard PredictionStats to StatsOk (replica divergence audits)
 *  and split the error payload into message + context chain. v3 added
 *  the per-frame trace-context prefix, the ObsFetch/ObsOk scrape
 *  frames, and the clock epoch in HelloOk. v4 dropped StatsOk's
 *  per-shard `rejected` slot, which no server ever filled. v5 dropped
 *  StatsOk's supervisor counters and its per-shard `unavailable`,
 *  `queueDepth` and `quarantined` slots, which no client read. */
constexpr std::uint16_t wireVersion = 5;

/** Header version of a frame without the trace-context prefix. */
constexpr std::uint16_t plainFrameVersion = 2;

/** Bytes in the fixed frame header (magic..hcrc). */
constexpr std::size_t frameHeaderBytes = 24;

/** Trailing payload-CRC bytes. */
constexpr std::size_t frameTrailerBytes = 4;

/** Bytes of the trace-context payload prefix. */
constexpr std::size_t traceContextBytes = 17;

/** Header sanity bound on the payload length. Large enough for a
 *  shard snapshot (LB + LT sections of the default geometries are far
 *  below 1 MiB), small enough that a corrupt-but-CRC-colliding length
 *  cannot ask a reader to allocate the machine. */
constexpr std::uint32_t maxFramePayload = 64u << 20;

/** Frame types. Requests are odd-ish by convention only; the pairing
 *  that matters is (request id, response id). */
enum class FrameType : std::uint16_t
{
    Hello = 1,           ///< client -> server: version handshake
    HelloOk = 2,         ///< server -> client: handshake accepted
    Predict = 3,         ///< LoadInfo -> prediction request
    PredictOk = 4,       ///< Prediction + pc echo
    Train = 5,           ///< LoadInfo + actual addr + Prediction
    TrainOk = 6,         ///< train applied
    Ping = 7,            ///< liveness probe
    Pong = 8,
    Stats = 9,           ///< fetch service-wide statistics
    StatsOk = 10,        ///< ServiceWireStats payload
    SnapshotFetch = 11,  ///< capture one shard's state (u32 shard)
    SnapshotData = 12,   ///< u32 shard + state_io snapshot bytes
    SnapshotInstall = 13,///< u32 shard + snapshot bytes to restore
    SnapshotInstallOk = 14, ///< u32 sections restored + u8 salvaged
    Shutdown = 15,       ///< ask the server to stop serving
    ShutdownOk = 16,
    ErrorReply = 17,     ///< structured Error for the echoed id
    GoAway = 18,         ///< server is dropping this connection
    ObsFetch = 19,       ///< fetch the observability scrape (u8 flags)
    ObsOk = 20,          ///< scrape JSON document (raw payload bytes)
};

/** Printable name of a FrameType (diagnostics, chaos logs). */
const char *frameTypeName(FrameType type);

/** One decoded frame. A valid() trace marks a traced frame; the prefix
 *  is stripped from payload on decode and prepended on encode. */
struct Frame
{
    FrameType type = FrameType::Ping;
    std::uint64_t id = 0;
    std::string payload;
    obs::TraceContext trace;
};

/** Serialize @p frame to wire bytes (header + payload + CRCs). */
std::string encodeFrame(const Frame &frame);

/**
 * Incremental frame decoder: feed() raw received bytes, then next()
 * until it reports NeedMore. Corrupt reports a structured error AND
 * poisons the reader — once the stream is unsynchronized no later
 * frame can be trusted, so the connection must be dropped.
 */
class FrameReader
{
  public:
    enum class Status : std::uint8_t
    {
        Ok,       ///< a complete frame was extracted
        NeedMore, ///< buffer holds only a frame prefix
        Corrupt,  ///< framing violated; reader is now poisoned
    };

    /** Append @p len received bytes to the decode buffer. */
    void feed(const void *data, std::size_t len);

    /**
     * Try to extract the next complete frame into @p out. On Corrupt,
     * @p error says what broke (BadMagic / BadVersion / BadHeader /
     * BadChecksum, all wrapped as the stream-level ProtocolError by
     * callers that surface it to users).
     */
    Status next(Frame &out, Error &error);

    /** Bytes buffered but not yet consumed by next(). */
    std::size_t buffered() const { return buffer_.size() - consumed_; }

    bool poisoned() const { return poisoned_; }

  private:
    std::string buffer_;
    std::size_t consumed_ = 0;
    bool poisoned_ = false;
};

/// @name Little-endian payload primitives
/// @{
void putU8(std::string &out, std::uint8_t v);
void putU16(std::string &out, std::uint16_t v);
void putU32(std::string &out, std::uint32_t v);
void putU64(std::string &out, std::uint64_t v);
void putString(std::string &out, std::string_view s); ///< u32 len + bytes

bool getU8(std::string_view in, std::size_t &pos, std::uint8_t &v);
bool getU16(std::string_view in, std::size_t &pos, std::uint16_t &v);
bool getU32(std::string_view in, std::size_t &pos, std::uint32_t &v);
bool getU64(std::string_view in, std::size_t &pos, std::uint64_t &v);
bool getString(std::string_view in, std::size_t &pos, std::string &s);
/// @}

/// @name Typed payload codecs
/// Decoders return false on any length/bounds violation; callers turn
/// that into a ProtocolError. Every field a predictor's update() or
/// tallyPrediction() reads round-trips exactly.
/// @{
void putLoadInfo(std::string &out, const LoadInfo &info);
bool getLoadInfo(std::string_view in, std::size_t &pos, LoadInfo &info);

void putPrediction(std::string &out, const Prediction &pred);
bool getPrediction(std::string_view in, std::size_t &pos,
                   Prediction &pred);

void putError(std::string &out, const Error &error);
bool getError(std::string_view in, std::size_t &pos, Error &error);
/// @}

/// @name Whole-payload builders for the concrete frame kinds
/// @{

/** Hello payload: wireVersion + client name. A server refuses any
 *  other version with BadVersion. */
std::string encodeHello(std::string_view client_name);
bool decodeHello(std::string_view payload, std::uint16_t &version,
                 std::string &client_name);

/** HelloOk payload: wireVersion + server name + the server's
 *  trace-clock epoch (unix ns, see obs::traceClockEpochUnixNs), so
 *  peers can compute clock offsets for merged timelines. */
std::string encodeHelloOk(std::string_view server_name,
                          std::uint64_t clock_epoch_unix_ns);
bool decodeHelloOk(std::string_view payload, std::uint16_t &version,
                   std::string &server_name,
                   std::uint64_t &clock_epoch_unix_ns);

/** ObsFetch payload: request flags (bit 0: include wall-clock timing
 *  sections; clear for byte-stable scrapes). */
std::string encodeObsFetch(bool include_timing);
bool decodeObsFetch(std::string_view payload, bool &include_timing);

/** Predict request payload. */
std::string encodePredictRequest(const LoadInfo &info);
bool decodePredictRequest(std::string_view payload, LoadInfo &info);

/** Predict response: the load PC echoed (client-side sanity check
 *  that a response cannot pair with the wrong request even if ids
 *  were somehow confused) + the full Prediction. */
std::string encodePredictResponse(std::uint64_t pc,
                                  const Prediction &pred);
bool decodePredictResponse(std::string_view payload, std::uint64_t &pc,
                           Prediction &pred);

/** Train request payload. */
std::string encodeTrainRequest(const LoadInfo &info,
                               std::uint64_t actual_addr,
                               const Prediction &pred);
bool decodeTrainRequest(std::string_view payload, LoadInfo &info,
                        std::uint64_t &actual_addr, Prediction &pred);

/** Error payload: structured code + retryable bit + message text +
 *  the context chain, each field separate. Keeping the code out of
 *  the message means a round-tripped error renders its code name
 *  (util/errorCodeName) exactly once — `grep ConnectionLost` finds
 *  the same line whether the error was local or remote. */
std::string encodeErrorPayload(const Error &error);
bool decodeErrorPayload(std::string_view payload, Error &error);

/** Per-shard serve counters inside ServiceWireStats. Carries the
 *  shard's full PredictionStats so a replication auditor can compare
 *  shard state across replicas bit for bit over the wire. */
struct ShardWireStats
{
    std::uint64_t predicts = 0;
    std::uint64_t trains = 0;
    PredictionStats stats; ///< tallied at train resolution
};

/** StatsOk payload: the aggregate PredictionStats plus per-shard
 *  counters — what a remote operator (or the migration check) needs
 *  to compare a service bit for bit. */
struct ServiceWireStats
{
    PredictionStats aggregate;
    std::vector<ShardWireStats> shards;
};

std::string encodeServiceStats(const ServiceWireStats &stats);
bool decodeServiceStats(std::string_view payload,
                        ServiceWireStats &stats);

/** Snapshot fetch/data/install payloads. */
std::string encodeSnapshotRequest(std::uint32_t shard);
bool decodeSnapshotRequest(std::string_view payload,
                           std::uint32_t &shard);
std::string encodeSnapshotData(std::uint32_t shard,
                               std::string_view bytes);
bool decodeSnapshotData(std::string_view payload, std::uint32_t &shard,
                        std::string &bytes);
std::string encodeSnapshotInstallOk(std::uint32_t restored,
                                    bool salvaged);
bool decodeSnapshotInstallOk(std::string_view payload,
                             std::uint32_t &restored, bool &salvaged);
/// @}

} // namespace clap::net

#endif // CLAP_NET_WIRE_HH
