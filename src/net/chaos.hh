/**
 * @file
 * Seeded wire-level fault injection: a ChaosStream decorates any
 * Stream (net/socket.hh) with the failure modes a real network
 * delivers — torn frames (a send that stops partway and drops the
 * connection), bit flips in flight, stalled sockets, and spontaneous
 * disconnects — while NetChaos owns the seeded Rng so the *sequence*
 * of faults is a pure function of the seed.
 *
 * Determinism is the design constraint everything here bends around:
 *
 *   - Every Rng draw happens at sendAll() time, exactly one schedule
 *     step per frame the client sends. recvSome() never draws — it
 *     only consumes faults *armed* by the preceding send ("the reply
 *     to this request will be flipped / stalled / cut"). The number
 *     of recv calls depends on kernel segmentation; the number of
 *     sends does not, so two same-seed runs follow identical fault
 *     schedules regardless of how the bytes were chunked.
 *   - The Rng lives in NetChaos and survives reconnects: connection
 *     N+1 continues the schedule where N left off. Armed reply-faults
 *     live in the per-connection ChaosStream and die with it.
 *   - A "stall" does not sleep; it *deterministically* reports
 *     DeadlineExceeded, exercising the client's deadline path without
 *     making the outcome depend on scheduler timing.
 *
 * This is the client-side half of the netchaos harness; server
 * kill/restart is driven by the bench driver itself (bracketed
 * restarts of a child process).
 *
 * Plugs into NetClient via ClientConfig::decorate.
 */

#ifndef CLAP_NET_CHAOS_HH
#define CLAP_NET_CHAOS_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "net/socket.hh"
#include "util/error.hh"
#include "util/rng.hh"

namespace clap::net
{

/** Per-sent-frame fault probabilities, drawn in a fixed order:
 *  disconnect, tear, stall, flipSend, then the reply faults
 *  (replyDisconnect, replyStall, flipRecv). */
struct NetChaosConfig
{
    std::uint64_t seed = 1;
    double disconnectRate = 0.0;      ///< drop before the send
    double tearRate = 0.0;            ///< send a prefix, then drop
    double stallRate = 0.0;           ///< send reports DeadlineExceeded
    double flipSendRate = 0.0;        ///< flip one outgoing bit
    double replyDisconnectRate = 0.0; ///< drop before the reply
    double replyStallRate = 0.0;      ///< reply read DeadlineExceeded
    double flipRecvRate = 0.0;        ///< flip one incoming bit
};

/** Cumulative injected-fault tallies (deterministic under one seed). */
struct NetChaosStats
{
    std::uint64_t disconnects = 0;
    std::uint64_t tears = 0;
    std::uint64_t stalls = 0;
    std::uint64_t sendFlips = 0;
    std::uint64_t replyDisconnects = 0;
    std::uint64_t replyStalls = 0;
    std::uint64_t recvFlips = 0;

    std::uint64_t
    total() const
    {
        return disconnects + tears + stalls + sendFlips +
               replyDisconnects + replyStalls + recvFlips;
    }
};

class NetChaos;

/** Stream decorator injecting the scheduled faults. */
class ChaosStream : public Stream
{
  public:
    ChaosStream(std::unique_ptr<Stream> inner, NetChaos &chaos)
        : inner_(std::move(inner)), chaos_(chaos)
    {
    }

    Expected<std::size_t> recvSome(void *buf, std::size_t len,
                                   int deadline_ms) override;
    Expected<void> sendAll(const void *buf, std::size_t len,
                           int deadline_ms) override;
    void shutdownBoth() override { inner_->shutdownBoth(); }

  private:
    std::unique_ptr<Stream> inner_;
    NetChaos &chaos_;

    /// @name Reply faults armed by the last send (connection-local)
    /// @{
    bool replyDisconnect_ = false;
    bool replyStall_ = false;
    bool replyFlip_ = false;
    std::uint64_t replyFlipDraw_ = 0; ///< raw draw; bit = draw % (n*8)
    /// @}
};

/** Fault scheduler: one per harness run, shared by every connection
 *  the client opens during it. */
class NetChaos
{
  public:
    explicit NetChaos(const NetChaosConfig &config)
        : config_(config), rng_(config.seed)
    {
    }

    /** Wrap @p inner; hand this to ClientConfig::decorate. */
    std::unique_ptr<Stream>
    wrap(std::unique_ptr<Stream> inner)
    {
        return std::make_unique<ChaosStream>(std::move(inner), *this);
    }

    const NetChaosConfig &config() const { return config_; }

    NetChaosStats
    stats() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return stats_;
    }

  private:
    friend class ChaosStream;

    enum class SendFault : std::uint8_t
    {
        None,
        Disconnect,
        Tear,
        Stall,
        Flip,
    };

    /** The full schedule step for one sent frame. */
    struct Step
    {
        SendFault send = SendFault::None;
        std::uint64_t sendDetail = 0; ///< tear prefix / flip bit
        bool replyDisconnect = false;
        bool replyStall = false;
        bool replyFlip = false;
        std::uint64_t replyFlipDraw = 0;
    };

    Step
    roll(std::size_t len)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        Step step;
        if (rng_.chance(config_.disconnectRate)) {
            ++stats_.disconnects;
            step.send = SendFault::Disconnect;
        } else if (len > 1 && rng_.chance(config_.tearRate)) {
            step.sendDetail = rng_.range(1, len - 1);
            ++stats_.tears;
            step.send = SendFault::Tear;
        } else if (rng_.chance(config_.stallRate)) {
            ++stats_.stalls;
            step.send = SendFault::Stall;
        } else if (len > 0 && rng_.chance(config_.flipSendRate)) {
            step.sendDetail = rng_.below(len * 8);
            ++stats_.sendFlips;
            step.send = SendFault::Flip;
        }
        // Reply faults only arm when the request actually goes out:
        // a killed send never gets a reply to corrupt.
        const bool sent = step.send == SendFault::None ||
                          step.send == SendFault::Flip;
        if (sent && rng_.chance(config_.replyDisconnectRate)) {
            ++stats_.replyDisconnects;
            step.replyDisconnect = true;
        } else if (sent && rng_.chance(config_.replyStallRate)) {
            ++stats_.replyStalls;
            step.replyStall = true;
        } else if (sent && rng_.chance(config_.flipRecvRate)) {
            step.replyFlipDraw = rng_.next();
            ++stats_.recvFlips;
            step.replyFlip = true;
        }
        return step;
    }

    NetChaosConfig config_;
    mutable std::mutex mutex_;
    Rng rng_;
    NetChaosStats stats_;
};

inline Expected<void>
ChaosStream::sendAll(const void *buf, std::size_t len, int deadline_ms)
{
    const NetChaos::Step step = chaos_.roll(len);
    if (step.replyDisconnect)
        replyDisconnect_ = true;
    if (step.replyStall)
        replyStall_ = true;
    if (step.replyFlip) {
        replyFlip_ = true;
        replyFlipDraw_ = step.replyFlipDraw;
    }
    switch (step.send) {
      case NetChaos::SendFault::Disconnect:
        inner_->shutdownBoth();
        return makeError(ErrorCode::ConnectionLost,
                         "chaos: connection dropped before send");
      case NetChaos::SendFault::Tear: {
        // The peer sees a torn frame: a valid prefix, then EOF. Its
        // FrameReader holds a partial frame until its read deadline
        // fires; this side sees the loss on its next operation.
        (void)inner_->sendAll(buf,
                              static_cast<std::size_t>(step.sendDetail),
                              deadline_ms);
        inner_->shutdownBoth();
        return makeError(ErrorCode::ConnectionLost,
                         "chaos: frame torn mid-send");
      }
      case NetChaos::SendFault::Stall:
        return makeError(ErrorCode::DeadlineExceeded,
                         "chaos: send stalled past deadline");
      case NetChaos::SendFault::Flip: {
        // Corrupt one bit in flight; the send itself "succeeds". The
        // receiver's CRC check is what must catch this.
        std::string copy(static_cast<const char *>(buf), len);
        copy[step.sendDetail / 8] ^=
            static_cast<char>(1u << (step.sendDetail % 8));
        return inner_->sendAll(copy.data(), copy.size(), deadline_ms);
      }
      case NetChaos::SendFault::None:
        break;
    }
    return inner_->sendAll(buf, len, deadline_ms);
}

inline Expected<std::size_t>
ChaosStream::recvSome(void *buf, std::size_t len, int deadline_ms)
{
    if (replyDisconnect_) {
        replyDisconnect_ = false;
        inner_->shutdownBoth();
        return makeError(ErrorCode::ConnectionLost,
                         "chaos: connection dropped before reply");
    }
    if (replyStall_) {
        replyStall_ = false;
        return makeError(ErrorCode::DeadlineExceeded,
                         "chaos: reply stalled past deadline");
    }
    auto received = inner_->recvSome(buf, len, deadline_ms);
    if (received && *received > 0 && replyFlip_) {
        replyFlip_ = false;
        const std::uint64_t bit =
            replyFlipDraw_ % (static_cast<std::uint64_t>(*received) * 8);
        static_cast<char *>(buf)[bit / 8] ^=
            static_cast<char>(1u << (bit % 8));
    }
    return received;
}

} // namespace clap::net

#endif // CLAP_NET_CHAOS_HH
