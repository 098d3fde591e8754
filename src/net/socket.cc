#include "net/socket.hh"

#include <arpa/inet.h>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <utility>

namespace clap::net
{

namespace
{

Error
errnoError(ErrorCode code, const char *what)
{
    return makeError(code, std::string(what) + ": " +
                               std::strerror(errno));
}

/** Remaining milliseconds of a deadline that started @p start with
 *  budget @p deadline_ms; -1 budgets never expire. */
int
remainingMs(std::chrono::steady_clock::time_point start, int deadline_ms)
{
    if (deadline_ms < 0)
        return -1;
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start)
            .count();
    if (elapsed >= deadline_ms)
        return 0;
    return static_cast<int>(deadline_ms - elapsed);
}

/** poll() one fd for @p events; true = ready, false = deadline. */
Expected<bool>
pollFd(int fd, short events, int timeout_ms)
{
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = events;
    pfd.revents = 0;
    for (;;) {
        const int rc = ::poll(&pfd, 1, timeout_ms);
        if (rc > 0)
            return true;
        if (rc == 0)
            return false;
        if (errno == EINTR)
            continue;
        return errnoError(ErrorCode::IoError, "poll");
    }
}

void
setCloexec(int fd)
{
    const int flags = ::fcntl(fd, F_GETFD);
    if (flags >= 0)
        ::fcntl(fd, F_SETFD, flags | FD_CLOEXEC);
}

} // namespace

std::string
Endpoint::str() const
{
    if (kind == Kind::Unix)
        return "unix:" + path;
    return "tcp:" + host + ":" + std::to_string(port);
}

Expected<Endpoint>
parseEndpoint(std::string_view spec)
{
    Endpoint ep;
    if (spec.rfind("unix:", 0) == 0) {
        ep.kind = Endpoint::Kind::Unix;
        ep.path = std::string(spec.substr(5));
        if (ep.path.empty())
            return makeError(ErrorCode::InvalidArgument,
                             "empty unix socket path in '" +
                                 std::string(spec) + "'");
        // sockaddr_un.sun_path is a fixed-size array; a longer path
        // would silently truncate at bind time.
        if (ep.path.size() >= sizeof(sockaddr_un{}.sun_path))
            return makeError(ErrorCode::InvalidArgument,
                             "unix socket path too long (" +
                                 std::to_string(ep.path.size()) +
                                 " bytes)");
        return ep;
    }
    if (spec.rfind("tcp:", 0) == 0) {
        ep.kind = Endpoint::Kind::Tcp;
        const std::string_view rest = spec.substr(4);
        const std::size_t colon = rest.rfind(':');
        if (colon == std::string_view::npos || colon == 0)
            return makeError(ErrorCode::InvalidArgument,
                             "expected tcp:host:port in '" +
                                 std::string(spec) + "'");
        ep.host = std::string(rest.substr(0, colon));
        const std::string port_str(rest.substr(colon + 1));
        char *end = nullptr;
        const long port = std::strtol(port_str.c_str(), &end, 10);
        if (end == port_str.c_str() || *end != '\0' || port < 0 ||
            port > 65535)
            return makeError(ErrorCode::InvalidArgument,
                             "bad tcp port '" + port_str + "'");
        ep.port = static_cast<std::uint16_t>(port);
        return ep;
    }
    return makeError(ErrorCode::InvalidArgument,
                     "endpoint must start with unix: or tcp: ('" +
                         std::string(spec) + "')");
}

SocketStream::~SocketStream()
{
    if (fd_ >= 0)
        ::close(fd_);
}

Expected<std::size_t>
SocketStream::recvSome(void *buf, std::size_t len, int deadline_ms)
{
    const auto start = std::chrono::steady_clock::now();
    for (;;) {
        auto ready = pollFd(fd_, POLLIN, remainingMs(start, deadline_ms));
        if (!ready)
            return ready.error();
        if (!*ready)
            return makeError(ErrorCode::DeadlineExceeded,
                             "recv deadline expired");
        const ssize_t n = ::recv(fd_, buf, len, 0);
        if (n > 0)
            return static_cast<std::size_t>(n);
        if (n == 0)
            return std::size_t{0}; // orderly EOF
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            continue; // spurious wakeup; re-poll against the deadline
        if (errno == ECONNRESET || errno == EPIPE)
            return makeError(ErrorCode::ConnectionLost,
                             "connection reset by peer");
        return errnoError(ErrorCode::IoError, "recv");
    }
}

Expected<void>
SocketStream::sendAll(const void *buf, std::size_t len, int deadline_ms)
{
    const auto start = std::chrono::steady_clock::now();
    const char *p = static_cast<const char *>(buf);
    std::size_t sent = 0;
    while (sent < len) {
        auto ready = pollFd(fd_, POLLOUT,
                            remainingMs(start, deadline_ms));
        if (!ready)
            return ready.error();
        if (!*ready)
            return makeError(ErrorCode::DeadlineExceeded,
                             "send deadline expired");
        // MSG_NOSIGNAL: a dead peer must produce EPIPE, not SIGPIPE.
        const ssize_t n =
            ::send(fd_, p + sent, len - sent, MSG_NOSIGNAL);
        if (n > 0) {
            sent += static_cast<std::size_t>(n);
            continue;
        }
        if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)
            continue;
        if (errno == ECONNRESET || errno == EPIPE)
            return makeError(ErrorCode::ConnectionLost,
                             "connection reset by peer");
        return errnoError(ErrorCode::IoError, "send");
    }
    return ok();
}

void
SocketStream::shutdownBoth()
{
    if (fd_ >= 0)
        ::shutdown(fd_, SHUT_RDWR);
}

Listener::~Listener()
{
    close();
}

Expected<void>
Listener::listen(const Endpoint &endpoint, int backlog)
{
    close();
    if (endpoint.kind == Endpoint::Kind::Unix) {
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0)
            return errnoError(ErrorCode::IoError, "socket(AF_UNIX)");
        setCloexec(fd);
        ::unlink(endpoint.path.c_str());
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, endpoint.path.c_str(),
                     sizeof(addr.sun_path) - 1);
        if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) != 0) {
            auto err = errnoError(ErrorCode::IoError, "bind");
            ::close(fd);
            return std::move(err).withContext("binding " +
                                              endpoint.str());
        }
        if (::listen(fd, backlog) != 0) {
            auto err = errnoError(ErrorCode::IoError, "listen");
            ::close(fd);
            return err;
        }
        fd_ = fd;
        bound_ = endpoint;
        return ok();
    }

    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return errnoError(ErrorCode::IoError, "socket(AF_INET)");
    setCloexec(fd);
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(endpoint.port);
    if (::inet_pton(AF_INET, endpoint.host.c_str(), &addr.sin_addr) !=
        1) {
        ::close(fd);
        return makeError(ErrorCode::InvalidArgument,
                         "tcp listener host must be an IPv4 literal, "
                         "got '" + endpoint.host + "'");
    }
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        auto err = errnoError(ErrorCode::IoError, "bind");
        ::close(fd);
        return std::move(err).withContext("binding " + endpoint.str());
    }
    if (::listen(fd, backlog) != 0) {
        auto err = errnoError(ErrorCode::IoError, "listen");
        ::close(fd);
        return err;
    }
    // Report the kernel-assigned port for port-0 binds.
    sockaddr_in actual{};
    socklen_t alen = sizeof(actual);
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&actual),
                      &alen) != 0) {
        auto err = errnoError(ErrorCode::IoError, "getsockname");
        ::close(fd);
        return err;
    }
    fd_ = fd;
    bound_ = endpoint;
    bound_.port = ntohs(actual.sin_port);
    return ok();
}

Expected<std::unique_ptr<SocketStream>>
Listener::accept(int deadline_ms)
{
    const int fd = fd_;
    if (fd < 0)
        return makeError(ErrorCode::Shutdown, "listener closed");
    auto ready = pollFd(fd, POLLIN, deadline_ms);
    if (!ready) {
        if (fd_ < 0)
            return makeError(ErrorCode::Shutdown, "listener closed");
        return ready.error();
    }
    if (!*ready)
        return makeError(ErrorCode::DeadlineExceeded,
                         "accept deadline expired");
    const int conn = ::accept(fd, nullptr, nullptr);
    if (conn < 0) {
        if (fd_ < 0 || errno == EBADF || errno == EINVAL)
            return makeError(ErrorCode::Shutdown, "listener closed");
        return errnoError(ErrorCode::IoError, "accept");
    }
    setCloexec(conn);
    if (bound_.kind == Endpoint::Kind::Tcp) {
        const int one = 1;
        ::setsockopt(conn, IPPROTO_TCP, TCP_NODELAY, &one,
                     sizeof(one));
    }
    return std::make_unique<SocketStream>(conn);
}

void
Listener::close()
{
    const int fd = fd_.exchange(-1);
    if (fd < 0)
        return;
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
    if (bound_.kind == Endpoint::Kind::Unix && !bound_.path.empty())
        ::unlink(bound_.path.c_str());
}

Expected<std::unique_ptr<SocketStream>>
connectEndpoint(const Endpoint &endpoint, int deadline_ms)
{
    int fd = -1;
    sockaddr_un uaddr{};
    sockaddr_in taddr{};
    sockaddr *addr = nullptr;
    socklen_t alen = 0;

    if (endpoint.kind == Endpoint::Kind::Unix) {
        fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0)
            return errnoError(ErrorCode::IoError, "socket(AF_UNIX)");
        uaddr.sun_family = AF_UNIX;
        std::strncpy(uaddr.sun_path, endpoint.path.c_str(),
                     sizeof(uaddr.sun_path) - 1);
        addr = reinterpret_cast<sockaddr *>(&uaddr);
        alen = sizeof(uaddr);
    } else {
        fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0)
            return errnoError(ErrorCode::IoError, "socket(AF_INET)");
        taddr.sin_family = AF_INET;
        taddr.sin_port = htons(endpoint.port);
        if (::inet_pton(AF_INET, endpoint.host.c_str(),
                        &taddr.sin_addr) != 1) {
            // Resolve a name (tests and clapd use 127.0.0.1, but be
            // permissive for configured hostnames).
            struct addrinfo hints{};
            hints.ai_family = AF_INET;
            hints.ai_socktype = SOCK_STREAM;
            struct addrinfo *res = nullptr;
            if (::getaddrinfo(endpoint.host.c_str(), nullptr, &hints,
                              &res) != 0 ||
                res == nullptr) {
                ::close(fd);
                return makeError(ErrorCode::InvalidArgument,
                                 "cannot resolve host '" +
                                     endpoint.host + "'");
            }
            taddr.sin_addr =
                reinterpret_cast<sockaddr_in *>(res->ai_addr)->sin_addr;
            ::freeaddrinfo(res);
        }
        addr = reinterpret_cast<sockaddr *>(&taddr);
        alen = sizeof(taddr);
    }
    setCloexec(fd);

    // Non-blocking connect so the deadline bounds even SYN loss.
    const int flags = ::fcntl(fd, F_GETFL);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    int rc = ::connect(fd, addr, alen);
    if (rc != 0 && errno != EINPROGRESS && errno != EAGAIN) {
        const bool refused =
            errno == ECONNREFUSED || errno == ENOENT;
        auto err = refused
            ? makeError(ErrorCode::ConnectionLost,
                        "connect refused: " + endpoint.str())
            : errnoError(ErrorCode::IoError, "connect");
        ::close(fd);
        return err;
    }
    if (rc != 0) {
        auto ready = pollFd(fd, POLLOUT, deadline_ms);
        if (!ready) {
            ::close(fd);
            return ready.error();
        }
        if (!*ready) {
            ::close(fd);
            return makeError(ErrorCode::DeadlineExceeded,
                             "connect deadline expired: " +
                                 endpoint.str());
        }
        int soerr = 0;
        socklen_t slen = sizeof(soerr);
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &slen);
        if (soerr != 0) {
            errno = soerr;
            const bool refused =
                soerr == ECONNREFUSED || soerr == ENOENT;
            auto err = refused
                ? makeError(ErrorCode::ConnectionLost,
                            "connect refused: " + endpoint.str())
                : errnoError(ErrorCode::IoError, "connect");
            ::close(fd);
            return err;
        }
    }
    ::fcntl(fd, F_SETFL, flags); // back to blocking; poll gates I/O
    if (endpoint.kind == Endpoint::Kind::Tcp) {
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
    return std::make_unique<SocketStream>(fd);
}

Expected<std::pair<std::unique_ptr<SocketStream>,
                   std::unique_ptr<SocketStream>>>
streamPair()
{
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0)
        return errnoError(ErrorCode::IoError, "socketpair");
    setCloexec(fds[0]);
    setCloexec(fds[1]);
    return std::make_pair(std::make_unique<SocketStream>(fds[0]),
                          std::make_unique<SocketStream>(fds[1]));
}

} // namespace clap::net
