/**
 * @file
 * Thin POSIX socket layer under the wire protocol: endpoint parsing
 * ("unix:/path" or "tcp:host:port"), a blocking-with-deadline Stream
 * abstraction, listeners, and connectors. Everything returns
 * Expected<> — a peer reset, a refused connect, or an expired
 * deadline is ordinary input, not an exception.
 *
 * The Stream interface is deliberately virtual: the chaos layer
 * (net/chaos.hh) decorates a real SocketStream with seeded faults
 * (torn sends, bit flips, stalls) without the client or server
 * knowing, which is what lets bench_netchaos drive the production
 * code paths rather than a test double.
 *
 * Deadlines are per call, in milliseconds (-1 = block forever),
 * enforced with poll(2) before every read/write so a stalled peer
 * costs at most one deadline, never a hang.
 */

#ifndef CLAP_NET_SOCKET_HH
#define CLAP_NET_SOCKET_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "util/error.hh"

namespace clap::net
{

/** A parsed server address. */
struct Endpoint
{
    enum class Kind : std::uint8_t { Unix, Tcp };
    Kind kind = Kind::Unix;
    std::string path;        ///< Unix: socket path
    std::string host;        ///< Tcp: numeric or resolvable host
    std::uint16_t port = 0;  ///< Tcp: port (0 = ephemeral)

    /** Render back to the "unix:..."/"tcp:..." spelling. */
    std::string str() const;
};

/**
 * Parse "unix:/path/to.sock" or "tcp:host:port". The TCP host may be
 * an IPv4 literal or a name; port must fit u16.
 */
Expected<Endpoint> parseEndpoint(std::string_view spec);

/**
 * A bidirectional byte stream with per-call deadlines. Implemented by
 * SocketStream over a connected socket and decorated by ChaosStream.
 */
class Stream
{
  public:
    virtual ~Stream() = default;

    /**
     * Read at least 1 and at most @p len bytes into @p buf. Returns
     * the byte count; 0 means orderly EOF. DeadlineExceeded if no
     * byte arrives within @p deadline_ms; ConnectionLost on reset.
     */
    virtual Expected<std::size_t> recvSome(void *buf, std::size_t len,
                                           int deadline_ms) = 0;

    /**
     * Write all @p len bytes of @p buf, polling for writability
     * before each chunk. DeadlineExceeded if the peer's receive
     * window stays closed past @p deadline_ms (a stalled reader must
     * not wedge the server's writer thread).
     */
    virtual Expected<void> sendAll(const void *buf, std::size_t len,
                                   int deadline_ms) = 0;

    /** Half-close both directions (wakes a peer blocked in recv). */
    virtual void shutdownBoth() = 0;
};

/** Stream over a connected POSIX socket; owns the fd. */
class SocketStream : public Stream
{
  public:
    explicit SocketStream(int fd) : fd_(fd) {}
    ~SocketStream() override;

    SocketStream(const SocketStream &) = delete;
    SocketStream &operator=(const SocketStream &) = delete;

    Expected<std::size_t> recvSome(void *buf, std::size_t len,
                                   int deadline_ms) override;
    Expected<void> sendAll(const void *buf, std::size_t len,
                           int deadline_ms) override;
    void shutdownBoth() override;

    int fd() const { return fd_; }

  private:
    int fd_ = -1;
};

/** A bound, listening server socket. */
class Listener
{
  public:
    Listener() = default;
    ~Listener();

    Listener(const Listener &) = delete;
    Listener &operator=(const Listener &) = delete;

    /**
     * Bind and listen on @p endpoint. A Unix endpoint unlinks any
     * stale socket file first; a TCP endpoint binds 127.0.0.1 with
     * SO_REUSEADDR (this is a loopback/UDS gateway, not an
     * internet-facing daemon). On success boundEndpoint() reports
     * the actual address — for TCP port 0 that includes the
     * kernel-assigned ephemeral port, which is how tests and the
     * migration driver find a free port without racing.
     */
    Expected<void> listen(const Endpoint &endpoint, int backlog = 64);

    /**
     * Accept one connection. DeadlineExceeded after @p deadline_ms
     * (so an accept loop can poll a shutdown flag); Shutdown if
     * close() was called from another thread.
     */
    Expected<std::unique_ptr<SocketStream>> accept(int deadline_ms);

    /** Close the listening fd (and unlink a Unix socket path). */
    void close();

    const Endpoint &boundEndpoint() const { return bound_; }
    bool listening() const { return fd_.load() >= 0; }

  private:
    /// Atomic: close() runs on the owner's thread while the accept
    /// loop is still reading it.
    std::atomic<int> fd_{-1};
    Endpoint bound_;
};

/**
 * Connect to @p endpoint within @p deadline_ms. ConnectionLost on
 * refusal (server not up yet — the client's backoff loop treats it
 * as retryable), DeadlineExceeded on a connect that never completes.
 */
Expected<std::unique_ptr<SocketStream>>
connectEndpoint(const Endpoint &endpoint, int deadline_ms);

/** Connected stream pair (socketpair(2)) for in-process tests. */
Expected<std::pair<std::unique_ptr<SocketStream>,
                   std::unique_ptr<SocketStream>>>
streamPair();

} // namespace clap::net

#endif // CLAP_NET_SOCKET_HH
