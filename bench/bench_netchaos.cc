/**
 * @file
 * The wire-level chaos proof for src/net/: a single client replays a
 * trace through the full gateway stack while a seeded NetChaos layer
 * injects disconnects, torn frames, stalls, and bit flips — and the
 * harness asserts the contract the protocol was designed around:
 * every request ends in a correct reply or a structured error, never
 * a hang and never a reply paired with the wrong request
 * (wrong_replies must be 0 in every phase).
 *
 * Three phases, all with deterministic tables:
 *
 *   1. Chaos round trips (in-process server, UDS): two fault tiers
 *      (mild, harsh). All chaos draws happen at send time
 *      (net/chaos.hh), so every counter in the table is a pure
 *      function of the seed — running the binary twice must produce
 *      byte-identical BENCH_netchaos.json, which is exactly what the
 *      smoke_net ctest diffs (span recording on or off).
 *
 *   2. Server kill/restart: the server is a spawned clapd process
 *      (bench/clapd_util.hh); the bench SIGKILLs it between replay
 *      segments and restarts it, and the client rides through each
 *      kill with exactly one reconnect.
 *
 *   3. Shard migration: clapd A serves the first half of the trace,
 *      its shard snapshots are streamed over the wire
 *      (SnapshotFetch -> SnapshotInstall) into a fresh clapd B,
 *      which serves the second half. B's final aggregate
 *      PredictionStats must equal serve/crosscheck's
 *      shardedReferenceStats bit for bit — a migrated service is
 *      indistinguishable from one that never moved.
 *
 * Flags (besides the shared bench/sweep flags):
 *   --netchaos-seed=N   chaos schedule seed (default 0xc4a0_e7)
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "bench/clapd_util.hh"
#include "net/chaos.hh"
#include "net/client.hh"
#include "net/server.hh"
#include "serve/crosscheck.hh"
#include "serve/service.hh"

namespace
{

using namespace clap;
using namespace clap::bench;
using namespace clap::net;

std::uint64_t chaosSeed = 0xc4a0e7; ///< --netchaos-seed

/* ------------------------------------------------------------------ */
/* Phase 1: seeded chaos round trips against an in-process server.    */
/* ------------------------------------------------------------------ */

struct ChaosTier
{
    const char *name;
    NetChaosConfig config;
};

std::vector<ChaosTier>
chaosTiers()
{
    std::vector<ChaosTier> tiers;
    {
        ChaosTier mild{"mild", {}};
        mild.config.seed = chaosSeed;
        mild.config.disconnectRate = 0.002;
        mild.config.tearRate = 0.002;
        mild.config.stallRate = 0.001;
        mild.config.flipSendRate = 0.002;
        mild.config.replyDisconnectRate = 0.001;
        mild.config.replyStallRate = 0.001;
        mild.config.flipRecvRate = 0.001;
        tiers.push_back(mild);
    }
    {
        ChaosTier harsh{"harsh", {}};
        harsh.config.seed = chaosSeed ^ 0x9e3779b97f4a7c15ull;
        harsh.config.disconnectRate = 0.01;
        harsh.config.tearRate = 0.01;
        harsh.config.stallRate = 0.005;
        harsh.config.flipSendRate = 0.01;
        harsh.config.replyDisconnectRate = 0.005;
        harsh.config.replyStallRate = 0.005;
        harsh.config.flipRecvRate = 0.005;
        tiers.push_back(harsh);
    }
    return tiers;
}

struct ChaosPhaseRow
{
    std::string tier;
    ReplayCounts counts;
    ClientCounters client;
    NetChaosStats faults;
    ServerCounters server;
    std::uint64_t serviceLoads = 0; ///< loads the predictor trained on
};

ChaosPhaseRow
runChaosTier(const ChaosTier &tier, const Trace &trace)
{
    ChaosPhaseRow row;
    row.tier = tier.name;

    ServiceConfig serviceConfig;
    serviceConfig.shards = 2;
    PredictionService service(serviceConfig, hybridFactory());

    const std::string path = socketPath("netchaos", "chaos-" + row.tier);
    ServerConfig serverConfig;
    serverConfig.endpoint = "unix:" + path;
    // Reconnect bursts briefly overlap old (dying) and new
    // connections; a generous budget keeps turned_away at a
    // deterministic zero.
    serverConfig.maxConnections = 256;
    NetServer server(service, serverConfig);
    if (auto started = server.start(); !started) {
        BenchState::instance().failures.push_back(
            {"netchaos/chaos/" + row.tier + "/start",
             started.error().str()});
        return row;
    }

    NetChaos chaos(tier.config);
    ClientConfig config =
        clientConfig(server.boundEndpoint().str(), "netchaos");
    config.decorate = [&chaos](std::unique_ptr<Stream> inner) {
        return chaos.wrap(std::move(inner));
    };
    {
        NetClient client(config);
        row.counts =
            replaySlice(client, trace, 0, trace.records().size());
        row.client = client.counters();
    }
    server.stop();
    service.stop();
    std::remove(path.c_str());

    row.faults = chaos.stats();
    row.server = server.counters();
    row.serviceLoads = service.aggregateStats().loads;

    if (row.client.wrongReplies != 0) {
        BenchState::instance().failures.push_back(
            {"netchaos/chaos/" + row.tier + "/wrong-replies",
             std::to_string(row.client.wrongReplies) +
                 " replies paired with the wrong request"});
    }
    return row;
}

/* ------------------------------------------------------------------ */
/* Phase 2: server kill/restart between replay segments.              */
/* ------------------------------------------------------------------ */

struct KillPhaseRow
{
    unsigned kills = 0;
    ReplayCounts counts;
    ClientCounters client;
    bool completed = false;
};

KillPhaseRow
runKillPhase(const Trace &trace)
{
    constexpr unsigned segments = 4; // 3 kills
    KillPhaseRow row;
    const std::string path = socketPath("netchaos", "kill");
    const std::string endpoint = "unix:" + path;

    ClapdProcess child;
    std::string error;
    if (!child.start(endpoint, 2, error)) {
        BenchState::instance().failures.push_back(
            {"netchaos/kill/start", error});
        return row;
    }

    NetClient client(clientConfig(endpoint, "netchaos"));
    const std::size_t total = trace.records().size();
    for (unsigned seg = 0; seg < segments; ++seg) {
        const std::size_t first = total * seg / segments;
        const std::size_t last = total * (seg + 1) / segments;
        row.counts.add(replaySlice(client, trace, first, last));
        if (seg + 1 == segments)
            break;

        // Crash the server between segments and block on the restart's
        // readiness byte — so the replaying client's one reconnect is
        // deterministic, not a race with server startup.
        child.kill();
        ++row.kills;
        if (!child.start(endpoint, 2, error)) {
            BenchState::instance().failures.push_back(
                {"netchaos/kill/restart" + std::to_string(seg), error});
            return row;
        }
    }
    row.client = client.counters();
    row.completed = true;

    if (auto stopped = client.requestShutdown(); !stopped) {
        BenchState::instance().failures.push_back(
            {"netchaos/kill/shutdown", stopped.error().str()});
    }
    child.wait();
    std::remove(path.c_str());

    if (row.client.wrongReplies != 0) {
        BenchState::instance().failures.push_back(
            {"netchaos/kill/wrong-replies",
             std::to_string(row.client.wrongReplies) +
                 " replies paired with the wrong request"});
    }
    if (row.counts.predictErrors != 0 || row.counts.trainErrors != 0) {
        // Kills land between round trips and the restart is awaited,
        // so every request must still end in a correct reply — the
        // failures ride entirely inside the retry budget.
        BenchState::instance().failures.push_back(
            {"netchaos/kill/errors",
             std::to_string(row.counts.predictErrors) + " predicts / " +
                 std::to_string(row.counts.trainErrors) +
                 " trains failed despite awaited restarts"});
    }
    return row;
}

/* ------------------------------------------------------------------ */
/* Phase 3: wire-streamed shard migration A -> B.                     */
/* ------------------------------------------------------------------ */

struct MigratePhaseRow
{
    unsigned shards = 2;
    ReplayCounts counts;
    std::uint64_t snapshotBytes = 0;
    std::uint32_t sectionsRestored = 0;
    bool salvaged = false;
    PredictionStats migrated;
    PredictionStats reference;
    bool statsEqual = false;
    bool completed = false;
};

MigratePhaseRow
runMigratePhase(const Trace &trace)
{
    MigratePhaseRow row;
    const std::string pathA = socketPath("netchaos", "migrate-a");
    const std::string pathB = socketPath("netchaos", "migrate-b");
    const std::string endpointA = "unix:" + pathA;
    const std::string endpointB = "unix:" + pathB;

    ClapdProcess serverA;
    std::string error;
    if (!serverA.start(endpointA, row.shards, error)) {
        BenchState::instance().failures.push_back(
            {"netchaos/migrate/start-a", error});
        return row;
    }

    // First half of the trace into A. The client object survives the
    // migration below, carrying its GHR/path history across servers
    // exactly as a session would across a shard handoff.
    NetClient client(clientConfig(endpointA, "netchaos"));
    const std::size_t half = trace.records().size() / 2;
    row.counts = replaySlice(client, trace, 0, half);

    // Stream every shard's snapshot out of A, then let A go.
    std::vector<std::string> snapshots(row.shards);
    for (unsigned s = 0; s < row.shards; ++s) {
        auto fetched = client.fetchSnapshot(s);
        if (!fetched) {
            BenchState::instance().failures.push_back(
                {"netchaos/migrate/fetch" + std::to_string(s),
                 fetched.error().str()});
            return row;
        }
        snapshots[s] = std::move(*fetched);
        row.snapshotBytes += snapshots[s].size();
    }
    if (auto stopped = client.requestShutdown(); !stopped) {
        BenchState::instance().failures.push_back(
            {"netchaos/migrate/shutdown-a", stopped.error().str()});
    }
    serverA.wait();
    std::remove(pathA.c_str());

    // Install into a fresh clapd B and finish the trace there.
    ClapdProcess serverB;
    if (!serverB.start(endpointB, row.shards, error)) {
        BenchState::instance().failures.push_back(
            {"netchaos/migrate/start-b", error});
        return row;
    }
    client.disconnect();
    NetClient clientB(clientConfig(endpointB, "netchaos"));
    for (unsigned s = 0; s < row.shards; ++s) {
        auto installed = clientB.installSnapshot(s, snapshots[s]);
        if (!installed) {
            BenchState::instance().failures.push_back(
                {"netchaos/migrate/install" + std::to_string(s),
                 installed.error().str()});
            return row;
        }
        row.sectionsRestored += installed->first;
        row.salvaged = row.salvaged || installed->second;
    }

    // Hand the front-end history over bit for bit: the session
    // context survives the server switch along with the shard state.
    clientB.adoptHistory(client.ghr(), client.pathHist());

    row.counts.add(
        replaySlice(clientB, trace, half, trace.records().size()));

    // B's aggregate must now equal the never-migrated reference.
    auto stats = clientB.stats();
    if (!stats) {
        BenchState::instance().failures.push_back(
            {"netchaos/migrate/stats", stats.error().str()});
        return row;
    }
    row.migrated = stats->aggregate;
    row.reference =
        shardedReferenceStats(trace, hybridFactory(), row.shards);
    row.statsEqual = row.migrated == row.reference;
    row.completed = true;

    if (auto stopped = clientB.requestShutdown(); !stopped) {
        BenchState::instance().failures.push_back(
            {"netchaos/migrate/shutdown-b", stopped.error().str()});
    }
    serverB.wait();
    std::remove(pathB.c_str());

    if (!row.statsEqual) {
        BenchState::instance().failures.push_back(
            {"netchaos/migrate/stats-equal",
             "migrated stats diverge from reference (migrated spec=" +
                 std::to_string(row.migrated.spec) + " correct=" +
                 std::to_string(row.migrated.specCorrect) +
                 ", reference spec=" +
                 std::to_string(row.reference.spec) + " correct=" +
                 std::to_string(row.reference.specCorrect) + ")"});
    }
    if (row.counts.predictErrors != 0 || row.counts.trainErrors != 0) {
        BenchState::instance().failures.push_back(
            {"netchaos/migrate/errors",
             "chaos-free migration replay shed requests"});
    }
    return row;
}

/* ------------------------------------------------------------------ */
/* Harness plumbing.                                                  */
/* ------------------------------------------------------------------ */

struct NetChaosResults
{
    std::vector<ChaosPhaseRow> chaos;
    KillPhaseRow kill;
    MigratePhaseRow migrate;
};

NetChaosResults
results()
{
    std::signal(SIGPIPE, SIG_IGN);
    NetChaosResults out;
    const std::shared_ptr<const Trace> trace = chaosBenchTrace();
    for (const ChaosTier &tier : chaosTiers())
        out.chaos.push_back(runChaosTier(tier, *trace));
    out.kill = runKillPhase(*trace);
    out.migrate = runMigratePhase(*trace);
    return out;
}

void
printResults()
{
    const NetChaosResults res = results();

    Table chaos;
    chaos.row({"tier", "loads", "preds_ok", "pred_err", "trains_ok",
               "train_err", "retries", "connects", "corrupt_reply",
               "wrong_replies", "go_aways", "faults", "srv_corrupt",
               "svc_loads"});
    for (const ChaosPhaseRow &row : res.chaos) {
        chaos.newRow();
        chaos.cell(row.tier);
        chaos.cell(row.counts.loads);
        chaos.cell(row.client.predictsOk);
        chaos.cell(row.counts.predictErrors);
        chaos.cell(row.client.trainsOk);
        chaos.cell(row.counts.trainErrors);
        chaos.cell(row.client.retries);
        chaos.cell(row.client.connects);
        chaos.cell(row.client.corruptReplies);
        chaos.cell(row.client.wrongReplies);
        chaos.cell(row.client.goAways);
        chaos.cell(row.faults.total());
        chaos.cell(row.server.corruptFrames);
        chaos.cell(row.serviceLoads);
    }
    printTable("Seeded wire chaos: every request resolves, "
               "wrong_replies must be 0 (byte-identical across "
               "same-seed runs)",
               chaos);

    Table kill;
    kill.row({"kills", "loads", "pred_err", "train_err", "retries",
              "connects", "wrong_replies", "completed"});
    kill.newRow();
    kill.cell(static_cast<std::uint64_t>(res.kill.kills));
    kill.cell(res.kill.counts.loads);
    kill.cell(res.kill.counts.predictErrors);
    kill.cell(res.kill.counts.trainErrors);
    kill.cell(res.kill.client.retries);
    kill.cell(res.kill.client.connects);
    kill.cell(res.kill.client.wrongReplies);
    kill.cell(res.kill.completed ? "yes" : "NO");
    printTable("Server kill/restart: the client rides through each "
               "SIGKILL with a reconnect",
               kill);

    Table migrate;
    migrate.row({"shards", "loads", "snap_bytes", "sections",
                 "salvaged", "mig_spec", "mig_correct", "ref_spec",
                 "ref_correct", "stats_equal"});
    migrate.newRow();
    migrate.cell(static_cast<std::uint64_t>(res.migrate.shards));
    migrate.cell(res.migrate.counts.loads);
    migrate.cell(res.migrate.snapshotBytes);
    migrate.cell(
        static_cast<std::uint64_t>(res.migrate.sectionsRestored));
    migrate.cell(res.migrate.salvaged ? "yes" : "no");
    migrate.cell(res.migrate.migrated.spec);
    migrate.cell(res.migrate.migrated.specCorrect);
    migrate.cell(res.migrate.reference.spec);
    migrate.cell(res.migrate.reference.specCorrect);
    migrate.cell(res.migrate.statsEqual ? "yes" : "NO");
    printTable("Wire-streamed shard migration: process B must equal "
               "the never-migrated reference bit for bit",
               migrate);

    std::printf("\nexpected: wrong_replies = 0 everywhere, kill phase "
                "completed = yes with zero shed requests, migration "
                "stats_equal = yes\n");
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace clap::bench;
    return benchMain("netchaos", argc, argv, printResults,
                     {seedFlag("--netchaos-seed", chaosSeed)});
}
