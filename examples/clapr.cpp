/**
 * @file
 * clapr — the replication gateway as a standalone daemon: one CLNP
 * endpoint in front of N clapd replicas. Trains fan out to every
 * healthy replica, predicts load-balance across them, a periodic
 * health pass drives the Healthy/Suspect/Down/Joining state machine,
 * and a restarted replica is bootstrapped back into rotation from a
 * serving donor (SnapshotFetch -> SnapshotInstall -> journal replay).
 *
 * Clients need no changes: clapr speaks exactly the clapd wire
 * protocol, so `clapd --probe=<clapr endpoint>` works unchanged —
 * that is the clapr_failover_smoke ctest: probe the gateway, SIGKILL a
 * replica, probe again.
 *
 * Usage:
 *   clapr --replica=SPEC [--replica=SPEC ...]
 *         [--endpoint=unix:/tmp/clapr.sock | tcp:127.0.0.1:0]
 *         [--shards=N] [--balance=seeded|least-inflight]
 *         [--balance-seed=N] [--strikes=K] [--journal-capacity=N]
 *         [--health-interval-ms=N]
 *         [--max-connections=N]
 *         [--read-deadline-ms=N] [--write-deadline-ms=N]
 *         [--ready-fd=N] [--quiet]
 *
 * --shards must match the replicas' shard count (bootstrap fetches
 * every shard). --ready-fd writes one byte once the listener is
 * bound, the same readiness handshake clapd offers. Shutdown frames
 * stop clapr itself; the replicas are separate processes and keep
 * running. A malformed or out-of-range number exits 2, naming the
 * flag.
 */

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "net/server.hh"
#include "obs/trace_events.hh"
#include "replica/gateway.hh"
#include "replica/health.hh"
#include "util/parse_number.hh"

namespace
{

using namespace clap;
using namespace clap::replica;

std::atomic<bool> signalled{false};

void
onSignal(int)
{
    signalled.store(true, std::memory_order_relaxed);
}

struct Options
{
    net::ServerConfig server;
    ReplicaGatewayConfig gateway;
    unsigned healthIntervalMs = 200;
    int readyFd = -1;
    bool quiet = false;
};

void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --replica=SPEC [--replica=SPEC ...]\n"
                 "          [--endpoint=SPEC] [--shards=N]\n"
                 "          [--balance=seeded|least-inflight] "
                 "[--balance-seed=N]\n"
                 "          [--strikes=K] [--journal-capacity=N]\n"
                 "          [--health-interval-ms=N]\n"
                 "          [--max-connections=N]\n"
                 "          [--read-deadline-ms=N] "
                 "[--write-deadline-ms=N]\n"
                 "          [--ready-fd=N] [--quiet]\n",
                 argv0);
}

bool
parseOptions(int argc, char **argv, Options &opts)
{
    opts.server.endpoint = "unix:/tmp/clapr.sock";
    opts.server.serverName = "clapr";
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
        if (const char *v = valueOf("--replica=")) {
            opts.gateway.replicas.push_back(v);
        } else if (const char *v = valueOf("--endpoint=")) {
            opts.server.endpoint = v;
        } else if (const char *v = valueOf("--shards=")) {
            valid = parseNumber(v, 1u, maxUnsigned, opts.gateway.shards);
        } else if (const char *v = valueOf("--balance=")) {
            if (std::strcmp(v, "seeded") == 0) {
                opts.gateway.balance =
                    ReplicaGatewayConfig::Balance::Seeded;
            } else if (std::strcmp(v, "least-inflight") == 0) {
                opts.gateway.balance =
                    ReplicaGatewayConfig::Balance::LeastInFlight;
            } else {
                std::fprintf(stderr, "clapr: unknown balance '%s'\n", v);
                return false;
            }
        } else if (const char *v = valueOf("--balance-seed=")) {
            valid = parseNumber(v, std::uint64_t{0},
                                std::numeric_limits<std::uint64_t>::max(),
                                opts.gateway.balanceSeed,
                                /*cLiteral=*/true);
        } else if (const char *v = valueOf("--strikes=")) {
            valid = parseNumber(v, 0u, maxUnsigned, opts.gateway.maxStrikes);
        } else if (const char *v = valueOf("--journal-capacity=")) {
            valid = parseNumber(v, std::size_t{0},
                                std::numeric_limits<std::size_t>::max(),
                                opts.gateway.journalCapacity);
        } else if (const char *v = valueOf("--health-interval-ms=")) {
            valid = parseNumber(v, 0u, maxUnsigned, opts.healthIntervalMs);
        } else if (const char *v = valueOf("--max-connections=")) {
            valid = parseNumber(v, 1u, maxUnsigned,
                                opts.server.maxConnections);
        } else if (const char *v = valueOf("--read-deadline-ms=")) {
            valid = parseNumber(v, 1, maxInt, opts.server.readDeadlineMs);
        } else if (const char *v = valueOf("--write-deadline-ms=")) {
            valid = parseNumber(v, 1, maxInt, opts.server.writeDeadlineMs);
        } else if (const char *v = valueOf("--ready-fd=")) {
            valid = parseNumber(v, 0, maxInt, opts.readyFd);
        } else if (arg == "--quiet") {
            opts.quiet = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return false;
        } else {
            std::fprintf(stderr, "clapr: unknown flag '%s'\n",
                         arg.c_str());
            usage(argv[0]);
            return false;
        }
        if (!valid) {
            std::fprintf(stderr, "clapr: bad value in '%s'\n",
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
    if (auto valid = opts.gateway.validate(); !valid) {
        std::fprintf(stderr, "clapr: %s\n", valid.error().str().c_str());
        return 2;
    }
    if (auto valid = opts.server.validate(); !valid) {
        std::fprintf(stderr, "clapr: %s\n", valid.error().str().c_str());
        return 2;
    }

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    std::signal(SIGPIPE, SIG_IGN);

    // Span files from a clapr/clapd fleet are merged into one
    // timeline (obs_tool merge); the process name tells them apart.
    obs::setTraceProcessName("clapr");

    ReplicaGateway gateway(opts.gateway);
    if (auto started = gateway.start(); !started) {
        std::fprintf(stderr, "clapr: %s\n",
                     started.error().str().c_str());
        return 1;
    }

    net::NetServer server(gateway, opts.server);
    if (auto started = server.start(); !started) {
        std::fprintf(stderr, "clapr: %s\n",
                     started.error().str().c_str());
        return 1;
    }

    // First pass runs synchronously inside start(): replicas that are
    // already up have joined before the first client request lands.
    // fleet_watch makes the same cadence scrape every live replica's
    // observability endpoint into the fleet view (ObsFetch on clapr
    // returns it alongside the gateway's own registry).
    HealthMonitor monitor(gateway, opts.healthIntervalMs,
                          /*fleet_watch=*/true);
    monitor.start();

    if (!opts.quiet) {
        std::printf("clapr: gateway on %s over %zu replica(s), "
                    "%u shard(s)\n",
                    server.boundEndpoint().str().c_str(),
                    opts.gateway.replicas.size(), opts.gateway.shards);
        std::fflush(stdout);
    }
    if (opts.readyFd >= 0) {
        const char byte = 'R';
        (void)!write(opts.readyFd, &byte, 1);
        close(opts.readyFd);
    }

    while (!server.shutdownRequested() &&
           !signalled.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }

    monitor.stop();
    server.stop();
    gateway.stop();

    if (!opts.quiet) {
        const GatewayCounters counters = gateway.counters();
        std::printf("clapr: %llu predict(s) (%llu failover(s), %llu "
                    "failed), %llu train(s) over %llu send(s), "
                    "%llu join(s)\n",
                    static_cast<unsigned long long>(counters.predicts),
                    static_cast<unsigned long long>(
                        counters.predictFailovers),
                    static_cast<unsigned long long>(
                        counters.predictsFailed),
                    static_cast<unsigned long long>(counters.trains),
                    static_cast<unsigned long long>(counters.trainSends),
                    static_cast<unsigned long long>(counters.joins));
        for (const ReplicaSnapshot &snap : gateway.replicaSnapshots()) {
            std::printf("clapr:   %s %s: %llu predict(s), %llu "
                        "train(s), %llu bootstrap(s)\n",
                        snap.endpoint.c_str(),
                        replicaStateName(snap.state),
                        static_cast<unsigned long long>(
                            snap.counters.predictsServed),
                        static_cast<unsigned long long>(
                            snap.counters.trainsApplied),
                        static_cast<unsigned long long>(
                            snap.counters.bootstraps));
        }
        std::printf("clapr: fleet watchdog: %llu scrape(s), %llu "
                    "failure(s)\n",
                    static_cast<unsigned long long>(
                        counters.fleetScrapes),
                    static_cast<unsigned long long>(
                        counters.fleetScrapeFailures));
        for (const FleetReplicaView &view : gateway.fleetView()) {
            std::printf("clapr:   %s handle p99 %.1fus total p99 "
                        "%.1fus, %llu gate veto(s) (+%llu), %llu "
                        "dropped span(s)\n",
                        view.endpoint.c_str(), view.stageHandleP99Us,
                        view.stageTotalP99Us,
                        static_cast<unsigned long long>(
                            view.gateVetoes),
                        static_cast<unsigned long long>(
                            view.gateVetoDelta),
                        static_cast<unsigned long long>(
                            view.droppedSpans));
        }
    }
    return 0;
}
