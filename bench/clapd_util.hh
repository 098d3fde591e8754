/**
 * @file
 * The real daemon under the wire-level chaos benches. bench_netchaos
 * and bench_replica fork + exec the built clapd (CMake bakes its path
 * in as CLAP_CLAPD_PATH), SIGKILL and restart it between replay
 * segments, and stream shard state from one clapd into another — so
 * their bit-for-bit PredictionStats proofs exercise the binary that
 * ships. Also the trace replay loop these benches and bench_net drive
 * a NetClient with.
 */

#ifndef CLAP_BENCH_CLAPD_UTIL_HH
#define CLAP_BENCH_CLAPD_UTIL_HH

#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <memory>
#include <string>

#include "net/client.hh"
#include "trace/trace_store.hh"
#include "workloads/suites.hh"

namespace clap::bench
{

/** A per-process socket path, so concurrent bench runs never collide. */
inline std::string
socketPath(const std::string &bench, const std::string &tag)
{
    return "/tmp/clap_" + bench + "_" + std::to_string(getpid()) + "_" +
           tag + ".sock";
}

/** The trace both chaos benches replay: the first INT-suite trace. */
inline std::shared_ptr<const Trace>
chaosBenchTrace()
{
    return globalTraceStore().get(buildSuite("INT").front(),
                                  defaultTraceLength());
}

/**
 * One spawned `clapd` process: the default server config in front of
 * a service of default hybrid predictors. Each request runs on its
 * connection's thread under the shard lock, so a single connection's
 * request stream is a pure function of its order, which is what the
 * same-seed JSON and stats-equality checks need.
 */
class ClapdProcess
{
  public:
    ClapdProcess() = default;
    ~ClapdProcess() { kill(); }

    ClapdProcess(const ClapdProcess &) = delete;
    ClapdProcess &operator=(const ClapdProcess &) = delete;

    /** Spawn clapd on @p endpoint and block until its readiness byte
     *  arrives; EOF on the pipe means it died first. */
    bool
    start(const std::string &endpoint, unsigned shards,
          std::string &error)
    {
        endpoint_ = endpoint;
        int ready[2];
        if (pipe(ready) != 0) {
            error = "pipe() failed";
            return false;
        }
        std::string args[] = {CLAP_CLAPD_PATH,
                              "--endpoint=" + endpoint,
                              "--shards=" + std::to_string(shards),
                              "--ready-fd=" + std::to_string(ready[1]),
                              "--quiet"};
        char *argv[] = {args[0].data(), args[1].data(), args[2].data(),
                        args[3].data(), args[4].data(), nullptr};

        pid_ = fork();
        if (pid_ < 0) {
            close(ready[0]);
            close(ready[1]);
            error = "fork() failed";
            return false;
        }
        if (pid_ == 0) {
            close(ready[0]);
            execv(argv[0], argv);
            _exit(127);
        }
        close(ready[1]);

        char byte = 0;
        const ssize_t got = read(ready[0], &byte, 1);
        close(ready[0]);
        if (got != 1) {
            error = "clapd exited before becoming ready";
            kill();
            return false;
        }
        return true;
    }

    /** SIGKILL + reap: the crash a client or gateway must ride
     *  through. No-op when nothing is running. */
    void
    kill()
    {
        if (pid_ < 0)
            return;
        ::kill(pid_, SIGKILL);
        int status = 0;
        waitpid(pid_, &status, 0);
        pid_ = -1;
    }

    /** Reap after a client-requested Shutdown. */
    void
    wait()
    {
        if (pid_ < 0)
            return;
        int status = 0;
        waitpid(pid_, &status, 0);
        pid_ = -1;
    }

    /** Send a Shutdown frame straight to this daemon and reap it;
     *  SIGKILL it if it does not answer. */
    void
    shutdown()
    {
        net::ClientConfig config;
        config.endpoint = endpoint_;
        config.clientName = "bench-admin";
        net::NetClient admin(config);
        if (admin.requestShutdown())
            wait();
        else
            kill();
    }

  private:
    pid_t pid_ = -1;
    std::string endpoint_;
};

/** Client settings of the chaos benches: a retry budget wide enough
 *  to ride through a daemon restart. */
inline net::ClientConfig
clientConfig(const std::string &endpoint, const std::string &name)
{
    net::ClientConfig config;
    config.endpoint = endpoint;
    config.clientName = name;
    config.maxAttempts = 8;
    config.backoffBaseMs = 1;
    config.backoffMaxMs = 20;
    return config;
}

struct ReplayCounts
{
    std::uint64_t loads = 0;
    std::uint64_t predictErrors = 0; ///< structured errors after retries
    std::uint64_t trainErrors = 0;   ///< one-shot trains that failed

    void
    add(const ReplayCounts &other)
    {
        loads += other.loads;
        predictErrors += other.predictErrors;
        trainErrors += other.trainErrors;
    }
};

/**
 * Replay records [@p first, @p last) of @p trace through @p client,
 * immediate-update model. A predict that still fails after the retry
 * budget sheds that load (its train is skipped); a failed train is
 * never retried (outcome unknown) and counts as a training gap. Both
 * are structured outcomes — what must never happen is a hang or a
 * wrong reply, and the benches assert those separately.
 */
inline ReplayCounts
replaySlice(net::NetClient &client, const Trace &trace,
            std::size_t first, std::size_t last)
{
    ReplayCounts counts;
    const auto &records = trace.records();
    for (std::size_t i = first; i < last && i < records.size(); ++i) {
        const auto &rec = records[i];
        if (rec.isLoad()) {
            ++counts.loads;
            auto pred =
                client.predict(client.makeInfo(rec.pc, rec.immOffset));
            if (!pred) {
                ++counts.predictErrors;
                continue;
            }
            auto trained = client.train(
                client.makeInfo(rec.pc, rec.immOffset), rec.effAddr,
                *pred);
            if (!trained)
                ++counts.trainErrors;
        } else if (rec.isBranch()) {
            client.observeBranch(rec.taken);
        } else if (rec.cls == InstClass::Call) {
            client.observeCall(rec.pc);
        }
    }
    return counts;
}

} // namespace clap::bench

#endif // CLAP_BENCH_CLAPD_UTIL_HH
