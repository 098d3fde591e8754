/**
 * @file
 * Wire chaos under concurrency for the network gateway (src/net/): an
 * in-process NetServer fronts a 4-shard PredictionService on a real
 * UDS socket, and 4 concurrent NetClients each replay a workload-
 * composer trace over the wire with replaySlice (bench/clapd_util.hh):
 * every load is a Predict round trip followed by one Train, through
 * the full frame/CRC/deadline stack. The harness reports the clients'
 * and the server's failure counters.
 *
 * With --fault-rate=F each client's connection is wrapped in a seeded
 * NetChaos layer (net/chaos.hh) injecting disconnects, torn frames,
 * stalls, and bit flips at rate F per frame — the configuration the
 * smoke_net ctest runs to prove a faulty wire costs retries, never
 * wrong replies (wrong_replies must be 0, or the harness exits 3).
 * The wire's throughput and latency are measured by bench_ladder's
 * wire-open workload (bench/ladder/).
 *
 * Flags (besides the shared bench/sweep flags):
 *   --fault-rate=F   per-frame probability of each chaos fault class
 *                    (0 to 1; 0 disables; chaos shares F across the
 *                    classes)
 *   --net-seed=N     chaos schedule seed (default 0x7e57)
 * Environment: CLAP_TRACE_INSTS (suites.hh).
 *
 * Note on determinism: with multiple client threads the chaos
 * schedules interleave with the scheduler, so the counter tables are
 * run-dependent under --fault-rate. bench_netchaos is the
 * single-client, byte-identical harness.
 */

#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench/bench_util.hh"
#include "bench/clapd_util.hh"
#include "net/chaos.hh"
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

constexpr unsigned clients = 4; ///< concurrent client threads
constexpr unsigned shards = 4;  ///< service shards

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

/** What the clients and the server counted over one run. */
struct NetChaosResult
{
    ReplayCounts replay;
    ClientCounters clientTotals;
    NetChaosStats chaosTotals;
    ServerCounters server;
};

NetChaosResult
results()
{
    NetChaosResult out;
    std::vector<std::shared_ptr<const Trace>> traces;
    for (const char *suite : {"INT", "MM", "TPC", "NT"})
        traces.push_back(globalTraceStore().get(
            buildSuite(suite).front(), defaultTraceLength()));

    ServiceConfig serviceConfig;
    serviceConfig.shards = shards;
    PredictionService service(serviceConfig, hybridFactory());

    const std::string path = socketPath("net", "server");
    ServerConfig serverConfig;
    serverConfig.endpoint = "unix:" + path;
    serverConfig.maxConnections = clients + 4;
    NetServer server(service, serverConfig);
    if (auto started = server.start(); !started) {
        BenchState::instance().failures.push_back(
            {"net/start", started.error().str()});
        return out;
    }
    const std::string endpoint = server.boundEndpoint().str();

    // One chaos scheduler per client: schedules stay seeded even
    // though thread interleaving makes the run non-reproducible.
    std::vector<std::unique_ptr<NetChaos>> chaos;
    for (unsigned c = 0; c < clients; ++c)
        chaos.push_back(faultRate > 0.0
                            ? std::make_unique<NetChaos>(
                                  chaosConfig(netSeed + c))
                            : nullptr);

    std::vector<ReplayCounts> replays(clients);
    std::vector<ClientCounters> counters(clients);
    {
        std::vector<std::thread> threads;
        for (unsigned c = 0; c < clients; ++c) {
            threads.emplace_back([&, c] {
                ClientConfig config;
                config.endpoint = endpoint;
                config.maxAttempts = 6;
                if (NetChaos *wire = chaos[c].get())
                    config.decorate =
                        [wire](std::unique_ptr<Stream> inner) {
                            return wire->wrap(std::move(inner));
                        };
                NetClient client(config);
                const Trace &trace = *traces[c % traces.size()];
                replays[c] = replaySlice(client, trace, 0, trace.size());
                counters[c] = client.counters();
            });
        }
        for (auto &thread : threads)
            thread.join();
    }
    server.stop();
    service.stop();
    std::remove(path.c_str());

    for (unsigned c = 0; c < clients; ++c) {
        out.replay.add(replays[c]);
        const ClientCounters &cc = counters[c];
        out.clientTotals.connects += cc.connects;
        out.clientTotals.retries += cc.retries;
        out.clientTotals.errorReplies += cc.errorReplies;
        out.clientTotals.transportErrors += cc.transportErrors;
        out.clientTotals.corruptReplies += cc.corruptReplies;
        out.clientTotals.wrongReplies += cc.wrongReplies;
        out.clientTotals.goAways += cc.goAways;
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
    out.server = server.counters();

    // The invariant the gateway stack exists for: a faulty wire
    // may cost retries and shed loads, never a wrong reply.
    if (out.clientTotals.wrongReplies != 0) {
        BenchState::instance().failures.push_back(
            {"net/wrong-replies",
             std::to_string(out.clientTotals.wrongReplies) +
                 " replies paired with the wrong request"});
    }
    return out;
}

void
printResults()
{
    const NetChaosResult res = results();

    Table counters;
    counters.row({"loads", "pred_err", "train_err", "connects",
                  "retries", "transport_err", "error_reply",
                  "corrupt_reply", "wrong_replies", "go_aways",
                  "srv_corrupt"});
    counters.newRow();
    counters.cell(res.replay.loads);
    counters.cell(res.replay.predictErrors);
    counters.cell(res.replay.trainErrors);
    counters.cell(res.clientTotals.connects);
    counters.cell(res.clientTotals.retries);
    counters.cell(res.clientTotals.transportErrors);
    counters.cell(res.clientTotals.errorReplies);
    counters.cell(res.clientTotals.corruptReplies);
    counters.cell(res.clientTotals.wrongReplies);
    counters.cell(res.clientTotals.goAways);
    counters.cell(res.server.corruptFrames);
    printTable("Failure counters, " + std::to_string(clients) +
                   " clients over UDS (fault-rate " +
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
