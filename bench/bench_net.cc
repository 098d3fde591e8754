/**
 * @file
 * Client bench for the network gateway (src/net/): an in-process
 * NetServer fronts a sharded PredictionService on a real UDS socket,
 * and M concurrent NetClients replay workload-composer traces over the
 * wire — every load is a Predict round trip followed by one Train, the
 * same immediate-update model as serve/crosscheck's replayTrace, just
 * through the full frame/CRC/deadline stack. The harness reports wire
 * throughput, per-predict round-trip latency percentiles, and the
 * client/server failure counters.
 *
 * With --fault-rate=F each client's connection is wrapped in a seeded
 * NetChaos layer (net/chaos.hh) injecting disconnects, torn frames,
 * stalls, and bit flips at rate F per frame — the smoke configuration
 * CI runs to prove a faulty wire costs retries, never wrong replies
 * (the wrong_replies column must be 0).
 *
 * Environment knobs: CLAP_NET_CLIENTS (default 4, at most 1024),
 * CLAP_NET_SHARDS (default 4, at most 4096; rounded down to a power
 * of two), CLAP_TRACE_INSTS (suites.hh). A malformed or out-of-range
 * client or shard count exits 2, naming the variable.
 *
 * Flags (besides the shared bench/sweep flags):
 *   --fault-rate=F   per-frame probability of each chaos fault class
 *                    (0 to 1; 0 disables; chaos shares F across the
 *                    classes)
 *   --net-seed=N     chaos schedule seed (default 0x7e57)
 *
 * Note on determinism: with multiple client threads the chaos
 * schedules interleave with the scheduler, so the counter tables are
 * run-dependent under --fault-rate (like bench_serve's throughput
 * table). bench_netchaos is the single-client, byte-identical
 * harness; this one measures the wire under load.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench/bench_util.hh"
#include "net/chaos.hh"
#include "obs/metrics.hh"
#include "net/client.hh"
#include "net/server.hh"
#include "serve/service.hh"
#include "workloads/composer.hh"

namespace
{

using namespace clap;
using namespace clap::bench;
using namespace clap::net;

double faultRate = 0.0;        ///< --fault-rate
std::uint64_t netSeed = 0x7e57; ///< --net-seed

std::string
socketPath()
{
    return "/tmp/clap_bench_net_" + std::to_string(getpid()) + ".sock";
}

/** Spread --fault-rate across the chaos classes: heavier on the
 *  recoverable ones (disconnect/tear/flip), lighter on stalls, which
 *  cost a whole request deadline each. */
NetChaosConfig
chaosConfig(std::uint64_t seed)
{
    NetChaosConfig config;
    config.seed = seed;
    config.disconnectRate = faultRate * 0.25;
    config.tearRate = faultRate * 0.25;
    config.stallRate = faultRate * 0.10;
    config.flipSendRate = faultRate * 0.25;
    config.replyDisconnectRate = faultRate * 0.05;
    config.replyStallRate = faultRate * 0.05;
    config.flipRecvRate = faultRate * 0.05;
    return config;
}

/** One client's replay outcome. */
struct ClientOutcome
{
    std::uint64_t loads = 0;
    std::uint64_t predictErrors = 0; ///< structured errors, incl. shed
    std::uint64_t trainErrors = 0;
    ClientCounters counters;
    std::vector<std::uint32_t> latenciesNs;
};

/** Replay @p trace through one NetClient over the wire, immediate-
 *  update model. Transport errors that survive the retry budget shed
 *  that load (counted), matching replayTrace's shed semantics. */
ClientOutcome
replayOverWire(const std::string &endpoint, const Trace &trace,
               NetChaos *chaos, bool collect_latencies)
{
    using Clock = std::chrono::steady_clock;

    ClientConfig config;
    config.endpoint = endpoint;
    config.maxAttempts = 6;
    if (chaos != nullptr)
        config.decorate = [chaos](std::unique_ptr<Stream> inner) {
            return chaos->wrap(std::move(inner));
        };

    NetClient client(config);
    ClientOutcome outcome;
    for (const auto &rec : trace.records()) {
        if (rec.isLoad()) {
            ++outcome.loads;
            const Clock::time_point begin =
                collect_latencies ? Clock::now() : Clock::time_point{};
            auto pred =
                client.predict(client.makeInfo(rec.pc, rec.immOffset));
            if (collect_latencies && pred) {
                const auto ns = std::chrono::duration_cast<
                                    std::chrono::nanoseconds>(
                                    Clock::now() - begin)
                                    .count();
                outcome.latenciesNs.push_back(
                    static_cast<std::uint32_t>(std::clamp<long long>(
                        ns, 0, UINT32_MAX)));
            }
            if (!pred) {
                ++outcome.predictErrors;
                continue; // shed this load: skip the matching train
            }
            auto trained = client.train(
                client.makeInfo(rec.pc, rec.immOffset), rec.effAddr,
                *pred);
            if (!trained)
                ++outcome.trainErrors;
        } else if (rec.isBranch()) {
            client.observeBranch(rec.taken);
        } else if (rec.cls == InstClass::Call) {
            client.observeCall(rec.pc);
        }
    }
    outcome.counters = client.counters();
    return outcome;
}

struct NetLoadResult
{
    unsigned clients = 0;
    unsigned shards = 0;
    double elapsedSec = 0.0;
    std::uint64_t loads = 0;
    std::uint64_t predictErrors = 0;
    std::uint64_t trainErrors = 0;
    double p50Us = 0.0;
    double p95Us = 0.0;
    double p99Us = 0.0;
    double p999Us = 0.0;
    double meanUs = 0.0;
    ClientCounters clientTotals;
    NetChaosStats chaosTotals;
    ServerCounters server;
};

NetLoadResult
results()
{
    NetLoadResult out;
    out.clients = envUnsigned("CLAP_NET_CLIENTS", 4, 1, 1024);
    out.shards = envShardCount("CLAP_NET_SHARDS");

    std::vector<std::shared_ptr<const Trace>> traces;
    for (const char *suite : {"INT", "MM", "TPC", "NT"})
        traces.push_back(globalTraceStore().get(
            buildSuite(suite).front(), defaultTraceLength()));

    ServiceConfig serviceConfig;
    serviceConfig.shards = out.shards;
    PredictionService service(serviceConfig, hybridFactory());

    ServerConfig serverConfig;
    serverConfig.endpoint = "unix:" + socketPath();
    serverConfig.maxConnections = out.clients + 4;
    NetServer server(service, nullptr, serverConfig);
    if (auto started = server.start(); !started) {
        BenchState::instance().failures.push_back(
            {"net/load/start", started.error().str()});
        return out;
    }
    const std::string endpoint = server.boundEndpoint().str();

    // One chaos scheduler per client: schedules stay seeded even
    // though thread interleaving makes the run non-reproducible.
    std::vector<std::unique_ptr<NetChaos>> chaos;
    for (unsigned c = 0; c < out.clients; ++c)
        chaos.push_back(faultRate > 0.0
                            ? std::make_unique<NetChaos>(
                                  chaosConfig(netSeed + c))
                            : nullptr);

    std::vector<ClientOutcome> outcomes(out.clients);
    const auto begin = std::chrono::steady_clock::now();
    {
        std::vector<std::thread> threads;
        for (unsigned c = 0; c < out.clients; ++c) {
            threads.emplace_back([&, c] {
                outcomes[c] = replayOverWire(
                    endpoint, *traces[c % traces.size()],
                    chaos[c].get(), /*collect_latencies=*/true);
            });
        }
        for (auto &thread : threads)
            thread.join();
    }
    const auto end = std::chrono::steady_clock::now();
    out.elapsedSec =
        std::chrono::duration<double>(end - begin).count();

    server.stop();
    service.stop();
    std::remove(socketPath().c_str());

    // Per-predict round-trip latencies aggregated through the
    // obs histogram (interpolated log2-bucket quantiles) — the
    // same estimator the live scrape and fleet watchdog report,
    // so bench and scrape tails are directly comparable.
    obs::HistogramSnapshot latency;
    for (unsigned c = 0; c < out.clients; ++c) {
        const ClientOutcome &res = outcomes[c];
        out.loads += res.loads;
        out.predictErrors += res.predictErrors;
        out.trainErrors += res.trainErrors;
        out.clientTotals.connects += res.counters.connects;
        out.clientTotals.connectFailures +=
            res.counters.connectFailures;
        out.clientTotals.retries += res.counters.retries;
        out.clientTotals.predictsOk += res.counters.predictsOk;
        out.clientTotals.trainsOk += res.counters.trainsOk;
        out.clientTotals.errorReplies += res.counters.errorReplies;
        out.clientTotals.transportErrors +=
            res.counters.transportErrors;
        out.clientTotals.corruptReplies +=
            res.counters.corruptReplies;
        out.clientTotals.wrongReplies += res.counters.wrongReplies;
        out.clientTotals.goAways += res.counters.goAways;
        for (std::uint32_t ns : res.latenciesNs)
            latency.addValue(ns);
        if (chaos[c]) {
            const NetChaosStats cs = chaos[c]->stats();
            out.chaosTotals.disconnects += cs.disconnects;
            out.chaosTotals.tears += cs.tears;
            out.chaosTotals.stalls += cs.stalls;
            out.chaosTotals.sendFlips += cs.sendFlips;
            out.chaosTotals.replyDisconnects += cs.replyDisconnects;
            out.chaosTotals.replyStalls += cs.replyStalls;
            out.chaosTotals.recvFlips += cs.recvFlips;
        }
    }
    out.p50Us = latency.p50() / 1000.0;
    out.p95Us = latency.p95() / 1000.0;
    out.p99Us = latency.p99() / 1000.0;
    out.p999Us = latency.quantile(0.999) / 1000.0;
    out.meanUs = latency.mean() / 1000.0;
    out.server = server.counters();

    // The invariant the gateway stack exists for: a faulty wire
    // may cost retries and shed loads, never a wrong reply.
    if (out.clientTotals.wrongReplies != 0) {
        BenchState::instance().failures.push_back(
            {"net/load/wrong-replies",
             std::to_string(out.clientTotals.wrongReplies) +
                 " replies paired with the wrong request"});
    }
    return out;
}

void
printResults()
{
    const NetLoadResult res = results();

    Table load;
    load.row({"clients", "shards", "loads", "preds/s", "mean_us",
              "p50_us", "p95_us", "p99_us", "p999_us", "pred_err",
              "train_err"});
    load.newRow();
    load.cell(static_cast<std::uint64_t>(res.clients));
    load.cell(static_cast<std::uint64_t>(res.shards));
    load.cell(res.loads);
    load.cell(res.elapsedSec > 0.0
                  ? static_cast<double>(res.clientTotals.predictsOk) /
                        res.elapsedSec
                  : 0.0,
              0);
    load.cell(res.meanUs, 2);
    load.cell(res.p50Us, 2);
    load.cell(res.p95Us, 2);
    load.cell(res.p99Us, 2);
    load.cell(res.p999Us, 2);
    load.cell(res.predictErrors);
    load.cell(res.trainErrors);
    printTable("Wire throughput / latency over UDS (wall-clock; "
               "run-dependent)",
               load);

    Table counters;
    counters.row({"connects", "retries", "transport_err", "error_reply",
                  "corrupt_reply", "wrong_replies", "go_aways",
                  "srv_corrupt"});
    counters.newRow();
    counters.cell(res.clientTotals.connects);
    counters.cell(res.clientTotals.retries);
    counters.cell(res.clientTotals.transportErrors);
    counters.cell(res.clientTotals.errorReplies);
    counters.cell(res.clientTotals.corruptReplies);
    counters.cell(res.clientTotals.wrongReplies);
    counters.cell(res.clientTotals.goAways);
    counters.cell(res.server.corruptFrames);
    printTable("Failure counters (fault-rate " +
                   std::to_string(faultRate) +
                   "; wrong_replies must be 0)",
               counters);

    if (faultRate > 0.0) {
        Table chaos;
        chaos.row({"disconnects", "tears", "stalls", "send_flips",
                   "reply_disc", "reply_stalls", "recv_flips"});
        chaos.newRow();
        chaos.cell(res.chaosTotals.disconnects);
        chaos.cell(res.chaosTotals.tears);
        chaos.cell(res.chaosTotals.stalls);
        chaos.cell(res.chaosTotals.sendFlips);
        chaos.cell(res.chaosTotals.replyDisconnects);
        chaos.cell(res.chaosTotals.replyStalls);
        chaos.cell(res.chaosTotals.recvFlips);
        printTable("Injected wire faults (net/chaos.hh)", chaos);
    }

    std::printf("\nexpected: wrong_replies = 0 at any fault rate — "
                "chaos costs retries and shed loads, never a reply "
                "paired with the wrong request\n");
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace clap::bench;
    return benchMain("net", argc, argv, printResults,
                     {numberFlag("--fault-rate", faultRate, 0.0, 1.0),
                      seedFlag("--net-seed", netSeed)});
}
