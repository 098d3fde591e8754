/**
 * @file
 * clapd — the prediction service as a standalone daemon. Builds a
 * sharded PredictionService (hybrid CAP/stride predictors) and fronts
 * it with the net/ gateway on a UDS or TCP endpoint. Runs until a
 * client's Shutdown frame or SIGINT/SIGTERM, then drains and exits 0.
 *
 * A daemon keeps no recovery path of its own: its predictor state is
 * speculative and a pure function of the train stream, so a failed
 * clapd is recovered by the fleet — clapr installs a healthy donor's
 * shard snapshots into it (DESIGN.md §13).
 *
 * This is also the process the chaos benches spawn (through
 * bench/clapd_util.hh): bench_netchaos SIGKILLs and restarts it
 * between replay segments and streams shard snapshots from one clapd
 * into a second over the wire (SnapshotFetch -> SnapshotInstall),
 * proving the second resumes serving bit for bit; bench_replica runs
 * three of them behind a ReplicaGateway.
 *
 * Usage:
 *   clapd [--endpoint=unix:/tmp/clapd.sock | --endpoint=tcp:127.0.0.1:0]
 *         [--shards=N] [--max-connections=N]
 *         [--read-deadline-ms=N] [--write-deadline-ms=N]
 *         [--ready-fd=N] [--quiet]
 *
 * --ready-fd=N writes one byte to descriptor N (then closes it) once
 * the listener is bound — the no-poll readiness handshake a parent
 * process (a bench or a script) waits on. Each connection's thread runs
 * its requests itself, under the target shard's lock, so a
 * single-connection request stream is a pure function of its order —
 * what the benches' stats-equality checks rely on. It also makes
 * --max-connections the one load bound: a connection over it gets a
 * GoAway carrying Overloaded, and at most that many requests run at
 * once. A malformed or out-of-range number exits 2, naming the flag.
 *
 * clapd --probe=SPEC [--shutdown] turns the binary into a one-shot
 * client instead: connect, ping, one predict/train round trip, and
 * (with --shutdown) a Shutdown request. Exit 0 only if every exchange
 * succeeded — the clapr_failover_smoke ctest's check that a separately
 * started daemon actually speaks the protocol end to end.
 */

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>

#include "core/hybrid_predictor.hh"
#include "obs/trace_events.hh"
#include "net/client.hh"
#include "net/server.hh"
#include "serve/service.hh"
#include "util/parse_number.hh"

namespace
{

using namespace clap;
using namespace clap::net;

std::atomic<bool> signalled{false};

void
onSignal(int)
{
    signalled.store(true, std::memory_order_relaxed);
}

struct Options
{
    ServerConfig server;
    ServiceConfig service;
    int readyFd = -1;
    bool quiet = false;
    std::string probe;    ///< non-empty: run as a one-shot client
    bool probeShutdown = false;
};

/**
 * One-shot client probe against a running daemon: handshake, ping,
 * predict, train, stats, and optionally a Shutdown request. Every
 * failure is structured and fatal — this is the smoke scripts'
 * assertion that a separately started clapd serves real clients.
 */
int
runProbe(const Options &opts)
{
    ClientConfig config;
    config.endpoint = opts.probe;
    config.clientName = "clapd-probe";
    NetClient client(config);

    if (auto pinged = client.ping(); !pinged) {
        std::fprintf(stderr, "clapd-probe: ping: %s\n",
                     pinged.error().str().c_str());
        return 1;
    }
    const LoadInfo info = client.makeInfo(0x1000, 8);
    auto pred = client.predict(info);
    if (!pred) {
        std::fprintf(stderr, "clapd-probe: predict: %s\n",
                     pred.error().str().c_str());
        return 1;
    }
    if (auto trained = client.train(info, 0x2000, *pred); !trained) {
        std::fprintf(stderr, "clapd-probe: train: %s\n",
                     trained.error().str().c_str());
        return 1;
    }
    auto stats = client.stats();
    if (!stats) {
        std::fprintf(stderr, "clapd-probe: stats: %s\n",
                     stats.error().str().c_str());
        return 1;
    }
    if (opts.probeShutdown) {
        if (auto down = client.requestShutdown(); !down) {
            std::fprintf(stderr, "clapd-probe: shutdown: %s\n",
                         down.error().str().c_str());
            return 1;
        }
    }
    if (!opts.quiet) {
        std::printf("clapd-probe: ok (%zu shard(s), %llu load(s) "
                    "trained)%s\n",
                    stats->shards.size(),
                    static_cast<unsigned long long>(
                        stats->aggregate.loads),
                    opts.probeShutdown ? ", shutdown requested" : "");
    }
    return 0;
}

void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--endpoint=SPEC] [--shards=N] "
                 "[--max-connections=N]\n"
                 "          [--read-deadline-ms=N] "
                 "[--write-deadline-ms=N]\n"
                 "          [--ready-fd=N] [--quiet]\n"
                 "       %s --probe=SPEC [--shutdown] [--quiet]\n",
                 argv0, argv0);
}

bool
parseOptions(int argc, char **argv, Options &opts)
{
    opts.service.shards = 4;
    constexpr unsigned maxUnsigned = std::numeric_limits<unsigned>::max();
    constexpr int maxInt = std::numeric_limits<int>::max();
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto valueOf = [&arg](const char *prefix) -> const char * {
            const std::size_t len = std::strlen(prefix);
            return arg.compare(0, len, prefix) == 0 ? arg.c_str() + len
                                                    : nullptr;
        };
        bool valid = true; // false: a number flag's value is bad
        if (const char *v = valueOf("--endpoint=")) {
            opts.server.endpoint = v;
        } else if (const char *v = valueOf("--shards=")) {
            valid = parseNumber(v, 1u, 4096u, opts.service.shards);
        } else if (const char *v = valueOf("--max-connections=")) {
            valid = parseNumber(v, 1u, maxUnsigned,
                                opts.server.maxConnections);
        } else if (const char *v = valueOf("--read-deadline-ms=")) {
            valid = parseNumber(v, 1, maxInt, opts.server.readDeadlineMs);
        } else if (const char *v = valueOf("--write-deadline-ms=")) {
            valid = parseNumber(v, 1, maxInt, opts.server.writeDeadlineMs);
        } else if (const char *v = valueOf("--ready-fd=")) {
            valid = parseNumber(v, 0, maxInt, opts.readyFd);
        } else if (const char *v = valueOf("--probe=")) {
            opts.probe = v;
        } else if (arg == "--shutdown") {
            opts.probeShutdown = true;
        } else if (arg == "--quiet") {
            opts.quiet = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return false;
        } else {
            std::fprintf(stderr, "clapd: unknown flag '%s'\n",
                         arg.c_str());
            usage(argv[0]);
            return false;
        }
        if (!valid) {
            std::fprintf(stderr, "clapd: bad value in '%s'\n",
                         arg.c_str());
            usage(argv[0]);
            return false;
        }
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    if (!parseOptions(argc, argv, opts))
        return 2;
    if (!opts.probe.empty())
        return runProbe(opts);
    if (auto valid = opts.service.validate(); !valid) {
        std::fprintf(stderr, "clapd: %s\n", valid.error().str().c_str());
        return 2;
    }
    if (auto valid = opts.server.validate(); !valid) {
        std::fprintf(stderr, "clapd: %s\n", valid.error().str().c_str());
        return 2;
    }

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    std::signal(SIGPIPE, SIG_IGN);

    // Names this process in merged Perfetto timelines (obs_tool merge).
    obs::setTraceProcessName("clapd");

    PredictionService service(opts.service, [] {
        return std::make_unique<HybridPredictor>(HybridConfig{});
    });

    NetServer server(service, opts.server);
    if (auto started = server.start(); !started) {
        std::fprintf(stderr, "clapd: %s\n",
                     started.error().str().c_str());
        return 1;
    }
    if (!opts.quiet) {
        std::printf("clapd: serving %u shard(s) on %s\n",
                    opts.service.shards,
                    server.boundEndpoint().str().c_str());
        std::fflush(stdout);
    }
    if (opts.readyFd >= 0) {
        // Readiness handshake: one byte once the listener is live.
        const char byte = 'R';
        (void)!write(opts.readyFd, &byte, 1);
        close(opts.readyFd);
    }

    while (!server.shutdownRequested() &&
           !signalled.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }

    server.stop();
    service.stop();

    if (!opts.quiet) {
        const ServerCounters counters = server.counters();
        const PredictionStats stats = service.aggregateStats();
        std::printf("clapd: %llu connection(s), %llu turned away, "
                    "%llu request(s), %llu corrupt frame(s); "
                    "%llu loads trained\n",
                    static_cast<unsigned long long>(counters.accepted),
                    static_cast<unsigned long long>(counters.turnedAway),
                    static_cast<unsigned long long>(counters.requests),
                    static_cast<unsigned long long>(
                        counters.corruptFrames),
                    static_cast<unsigned long long>(stats.loads));
    }
    return 0;
}
