/**
 * @file
 * Spawned clapd/clapr processes for the wire and fleet workloads. A
 * Daemon is started with --ready-fd and waited on until its listener
 * is bound; it is always reaped and its socket unlinked, whether it
 * stops through a Shutdown frame, through its destructor, or through
 * the ladder's watchdog (killAllDaemons), which may run on another
 * thread while the client threads are stuck.
 */

#ifndef CLAP_BENCH_LADDER_DAEMON_HH
#define CLAP_BENCH_LADDER_DAEMON_HH

#include <sys/types.h>

#include <string>
#include <vector>

#include "net/client.hh"

namespace clap::ladder
{

class Daemon
{
  public:
    Daemon() = default;
    ~Daemon();

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /**
     * Run @p binary with @p args plus --ready-fd, stdout and stderr
     * appended to @p log_path, and block until the readiness byte
     * arrives (false with @p error on exit, failure or a 20 s
     * timeout). @p socket_path is unlinked when the daemon is reaped.
     */
    bool start(const std::string &binary,
               const std::vector<std::string> &args,
               const std::string &socket_path,
               const std::string &log_path, std::string &error);

    /** A client of this daemon named @p name. */
    net::ClientConfig clientConfig(const char *name) const;

    /** VmHWM in MiB while running (0 once reaped). */
    double peakRssMib() const;

    /**
     * Ask the daemon to exit with a Shutdown frame and reap it; a
     * daemon that has not exited within @p timeout_ms is killed.
     * True when it exited on its own with status 0.
     */
    bool shutdown(int timeout_ms = 5000);

  private:
    /** SIGKILL and reap (no-op once reaped). */
    void kill();

    /** Poll for exit up to @p timeout_ms; true once reaped. */
    bool reap(int timeout_ms, int &status);

    pid_t pid_ = -1;
    std::string socket_;
};

/** Kill and reap every live Daemon and unlink its socket. Safe to
 *  call from the watchdog thread at any time. */
void killAllDaemons();

} // namespace clap::ladder

#endif // CLAP_BENCH_LADDER_DAEMON_HH
