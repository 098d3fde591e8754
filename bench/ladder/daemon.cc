#include "daemon.hh"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <map>
#include <mutex>
#include <thread>

#include "ladder.hh"

namespace clap::ladder
{

namespace
{

/// Every unreaped daemon and its socket. Reaping happens under the
/// mutex, so the watchdog never signals a pid that was already reaped
/// (and possibly reused).
std::mutex liveMutex;
std::map<pid_t, std::string> liveDaemons;

void
reapLocked(pid_t pid)
{
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    auto it = liveDaemons.find(pid);
    if (it != liveDaemons.end()) {
        unlink(it->second.c_str());
        liveDaemons.erase(it);
    }
}

} // namespace

void
killAllDaemons()
{
    std::lock_guard<std::mutex> lock(liveMutex);
    for (const auto &[pid, socket] : liveDaemons) {
        ::kill(pid, SIGKILL);
        int status = 0;
        while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
        }
        unlink(socket.c_str());
    }
    liveDaemons.clear();
}

Daemon::~Daemon()
{
    kill();
}

bool
Daemon::start(const std::string &binary,
              const std::vector<std::string> &args,
              const std::string &socket_path, const std::string &log_path,
              std::string &error)
{
    socket_ = socket_path;
    const int log = open(log_path.c_str(),
                         O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    if (log < 0) {
        error = "cannot open daemon log " + log_path;
        return false;
    }
    int ready[2];
    if (pipe(ready) != 0) {
        close(log);
        error = "pipe() failed";
        return false;
    }
    // Later children must not inherit this daemon's read end.
    fcntl(ready[0], F_SETFD, FD_CLOEXEC);

    std::vector<std::string> argv_text{binary};
    argv_text.insert(argv_text.end(), args.begin(), args.end());
    argv_text.push_back("--ready-fd=" + std::to_string(ready[1]));
    std::vector<char *> argv;
    for (std::string &arg : argv_text)
        argv.push_back(arg.data());
    argv.push_back(nullptr);

    {
        std::lock_guard<std::mutex> lock(liveMutex);
        pid_ = fork();
        if (pid_ == 0) {
            // Child of a threaded parent: async-signal-safe calls only.
            dup2(log, STDOUT_FILENO);
            dup2(log, STDERR_FILENO);
            close(ready[0]);
            execv(argv[0], argv.data());
            _exit(127);
        }
        if (pid_ > 0)
            liveDaemons[pid_] = socket_;
    }
    close(log);
    close(ready[1]);
    if (pid_ < 0) {
        close(ready[0]);
        error = "fork() failed";
        return false;
    }

    pollfd wait_ready{ready[0], POLLIN, 0};
    char byte = 0;
    const bool ready_seen = poll(&wait_ready, 1, 20000) == 1 &&
                            read(ready[0], &byte, 1) == 1;
    close(ready[0]);
    if (!ready_seen) {
        error = binary + " exited or timed out before becoming ready "
                         "(see " + log_path + ")";
        kill();
        return false;
    }
    return true;
}

double
Daemon::peakRssMib() const
{
    return pid_ > 0 ? ladder::peakRssMib(pid_) : 0.0;
}

bool
Daemon::reap(int timeout_ms, int &status)
{
    const auto deadline =
        Clock::now() + std::chrono::milliseconds(timeout_ms);
    for (;;) {
        {
            std::lock_guard<std::mutex> lock(liveMutex);
            if (liveDaemons.count(pid_) == 0) {
                pid_ = -1; // the watchdog got there first
                return true;
            }
            if (waitpid(pid_, &status, WNOHANG) == pid_) {
                unlink(socket_.c_str());
                liveDaemons.erase(pid_);
                pid_ = -1;
                return true;
            }
        }
        if (Clock::now() >= deadline)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
}

net::ClientConfig
Daemon::clientConfig(const char *name) const
{
    net::ClientConfig config;
    config.endpoint = "unix:" + socket_;
    config.clientName = name;
    return config;
}

bool
Daemon::shutdown(int timeout_ms)
{
    if (pid_ <= 0)
        return false;
    net::NetClient admin(clientConfig("ladder-admin"));
    int status = -1;
    if (admin.requestShutdown() && reap(timeout_ms, status))
        return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    kill();
    return false;
}

void
Daemon::kill()
{
    std::lock_guard<std::mutex> lock(liveMutex);
    if (pid_ > 0 && liveDaemons.count(pid_) != 0) {
        ::kill(pid_, SIGKILL);
        reapLocked(pid_);
    }
    pid_ = -1;
}

} // namespace clap::ladder
