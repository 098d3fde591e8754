/**
 * @file
 * The replication proof for src/replica/: a single client replays a
 * trace through one ReplicaGateway endpoint fronting N spawned clapd
 * processes (bench/clapd_util.hh), and the harness asserts the
 * contract the layer was designed around — the replica set is
 * indistinguishable from one unsharded single-client service.
 * Aggregate PredictionStats must equal serve/crosscheck's
 * shardedReferenceStats bit for bit, the divergence auditor must find
 * every replica's per-shard stats identical after a drain, and
 * wrong_replies must be 0 everywhere.
 *
 * Two phases, all with deterministic tables:
 *
 *   1. Balanced replay: three blank replicas are cold-started through
 *      one healthPass() (first answers donorless, seeds the rest),
 *      then the full trace flows through the gateway with the seeded
 *      balance policy. Every predict lands on a seed-chosen replica;
 *      every train fans out to all three. The per-replica predict
 *      counts are a pure function of the balance seed.
 *
 *   2. Failover: the trace replays in segments and a KillPlan-seeded
 *      victim is SIGKILLed at segment boundaries. Round one heals
 *      through healthPass() (ping -> Down replica answered ->
 *      SnapshotFetch from a donor -> SnapshotInstall -> rejoin);
 *      round two exercises the journal deterministically — beginJoin
 *      cuts the snapshot, a whole segment of trains lands in the
 *      journal, finishJoin replays it. The client sees zero errors
 *      end to end: predicts fail over inside the gateway, trains are
 *      never shed while any replica serves.
 *
 * Both phases end with the divergence audit, and running the binary
 * twice must produce byte-identical BENCH_replica.json — which is
 * exactly what the smoke_replica ctest diffs.
 *
 * Flags (besides the shared bench/sweep flags):
 *   --replica-seed=N   balance + kill schedule seed (default 0x5eed)
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "bench/clapd_util.hh"
#include "net/client.hh"
#include "net/server.hh"
#include "replica/chaos.hh"
#include "replica/gateway.hh"
#include "serve/crosscheck.hh"

namespace
{

using namespace clap;
using namespace clap::bench;
using namespace clap::net;
using namespace clap::replica;

std::uint64_t replicaSeed = 0x5eed; ///< --replica-seed

constexpr unsigned kReplicas = 3;
constexpr unsigned kShards = 2;

/** A gateway + front-door server over already-started replicas. */
struct GatewayStack
{
    std::unique_ptr<ReplicaGateway> gateway;
    std::unique_ptr<NetServer> server;

    bool
    start(const std::vector<std::string> &replicas,
          const std::string &endpoint, const char *phase)
    {
        ReplicaGatewayConfig config;
        config.replicas = replicas;
        config.shards = kShards;
        config.balance = ReplicaGatewayConfig::Balance::Seeded;
        config.balanceSeed = replicaSeed;
        gateway = std::make_unique<ReplicaGateway>(config);
        if (auto started = gateway->start(); !started) {
            BenchState::instance().failures.push_back(
                {std::string("replica/") + phase + "/gateway-start",
                 started.error().str()});
            return false;
        }
        ServerConfig serverConfig;
        serverConfig.endpoint = endpoint;
        serverConfig.serverName = "clapr";
        server = std::make_unique<NetServer>(*gateway, serverConfig);
        if (auto started = server->start(); !started) {
            BenchState::instance().failures.push_back(
                {std::string("replica/") + phase + "/server-start",
                 started.error().str()});
            return false;
        }
        return true;
    }

    void
    stop()
    {
        if (server)
            server->stop();
        if (gateway)
            gateway->stop();
    }
};

/** Record a failure unless @p condition holds. */
void
expect(bool condition, const std::string &key, const std::string &what)
{
    if (!condition)
        BenchState::instance().failures.push_back({key, what});
}

std::string
replicaSocket(const std::string &tag, unsigned i)
{
    return socketPath("replica", tag + "-r" + std::to_string(i));
}

/** Spawn one clapd per replica slot on its "<tag>-r<i>" socket; false
 *  (failure recorded) as soon as one does not come up. */
bool
startReplicas(std::vector<ClapdProcess> &replicas,
              std::vector<std::string> &endpoints,
              const std::string &tag, const std::string &phase)
{
    std::string error;
    for (unsigned i = 0; i < replicas.size(); ++i) {
        endpoints.push_back("unix:" + replicaSocket(tag, i));
        if (!replicas[i].start(endpoints[i], kShards, error)) {
            BenchState::instance().failures.push_back(
                {"replica/" + phase + "/start-r" + std::to_string(i),
                 error});
            return false;
        }
    }
    return true;
}

/** Stop the gateway, shut every replica down, and remove the
 *  sockets a crash may have left behind. */
void
tearDown(GatewayStack &stack, std::vector<ClapdProcess> &replicas,
         const std::string &tag)
{
    stack.stop();
    for (unsigned i = 0; i < replicas.size(); ++i) {
        replicas[i].shutdown();
        std::remove(replicaSocket(tag, i).c_str());
    }
    std::remove(socketPath("replica", tag + "-gw").c_str());
}

/* ------------------------------------------------------------------ */
/* Phase 1: balanced replay over three healthy replicas.              */
/* ------------------------------------------------------------------ */

struct BalancedRow
{
    ReplayCounts counts;
    ClientCounters client;
    GatewayCounters gateway;
    std::vector<std::uint64_t> perReplicaPredicts;
    std::uint64_t coldJoins = 0;
    PredictionStats stats;
    PredictionStats reference;
    bool statsEqual = false;
    bool auditEqual = false;
    bool completed = false;
};

BalancedRow
runBalancedPhase(const Trace &trace)
{
    BalancedRow row;
    std::vector<ClapdProcess> replicas(kReplicas);
    std::vector<std::string> endpoints;
    if (!startReplicas(replicas, endpoints, "bal", "balanced"))
        return row;

    GatewayStack stack;
    const std::string front = "unix:" + socketPath("replica", "bal-gw");
    if (!stack.start(endpoints, front, "balanced"))
        return row;

    // One pass cold-starts the set: every replica is blank and Down,
    // so the first to answer joins donorless and donates to the rest.
    const unsigned joined = stack.gateway->healthPass();
    expect(joined == kReplicas, "replica/balanced/cold-start",
           std::to_string(joined) + " of " +
               std::to_string(kReplicas) + " replicas joined");

    {
        NetClient client(clientConfig(front, "replica-bench"));
        row.counts =
            replaySlice(client, trace, 0, trace.records().size());
        auto stats = client.stats();
        if (stats) {
            row.stats = stats->aggregate;
        } else {
            BenchState::instance().failures.push_back(
                {"replica/balanced/stats", stats.error().str()});
        }
        row.client = client.counters();
    }

    auto audit = stack.gateway->auditReplicas();
    if (audit) {
        row.auditEqual = audit->equal;
    } else {
        BenchState::instance().failures.push_back(
            {"replica/balanced/audit", audit.error().str()});
    }

    for (const ReplicaSnapshot &snap :
         stack.gateway->replicaSnapshots()) {
        row.perReplicaPredicts.push_back(snap.counters.predictsServed);
        row.coldJoins += snap.counters.coldJoins;
    }
    row.gateway = stack.gateway->counters();
    row.reference =
        shardedReferenceStats(trace, hybridFactory(), kShards);
    row.statsEqual = row.stats == row.reference;
    row.completed = true;

    tearDown(stack, replicas, "bal");

    expect(row.statsEqual, "replica/balanced/stats-equal",
           "replicated aggregate diverges from the unsharded "
           "reference (spec=" +
               std::to_string(row.stats.spec) + " vs " +
               std::to_string(row.reference.spec) + ")");
    expect(row.auditEqual, "replica/balanced/audit-equal",
           "per-shard stats diverge across replicas");
    expect(row.client.wrongReplies == 0,
           "replica/balanced/wrong-replies",
           std::to_string(row.client.wrongReplies) +
               " replies paired with the wrong request");
    expect(row.counts.predictErrors == 0 &&
               row.counts.trainErrors == 0,
           "replica/balanced/errors",
           std::to_string(row.counts.predictErrors) + " predicts / " +
               std::to_string(row.counts.trainErrors) +
               " trains failed with every replica healthy");
    std::uint64_t served = 0;
    for (std::uint64_t predicts : row.perReplicaPredicts)
        served += predicts;
    expect(served == row.counts.loads, "replica/balanced/conservation",
           "per-replica predict counts do not sum to the load count");
    return row;
}

/* ------------------------------------------------------------------ */
/* Phase 2: seeded SIGKILL failover with heal and journal rounds.     */
/* ------------------------------------------------------------------ */

struct FailoverRow
{
    unsigned kills = 0;
    unsigned healVictim = 0;
    unsigned journalVictim = 0;
    ReplayCounts counts;
    ClientCounters client;
    GatewayCounters gateway;
    std::uint64_t journaled = 0;
    std::uint64_t replayed = 0;
    std::uint64_t bootstrapBytes = 0;
    PredictionStats stats;
    PredictionStats reference;
    bool statsEqual = false;
    bool auditEqual = false;
    bool completed = false;
};

FailoverRow
runFailoverPhase(const Trace &trace)
{
    // Six segments: [kill victim A] heal, then [kill victim B]
    // beginJoin / journal a whole segment / finishJoin, then a final
    // all-healthy segment. Both victims come from the seeded plan.
    constexpr unsigned segments = 6;
    FailoverRow row;
    const KillPlan plan(replicaSeed, kReplicas, /*rounds=*/2);
    row.healVictim = plan.victim(0);
    row.journalVictim = plan.victim(1);

    std::vector<ClapdProcess> replicas(kReplicas);
    std::vector<std::string> endpoints;
    if (!startReplicas(replicas, endpoints, "fo", "failover"))
        return row;

    GatewayStack stack;
    const std::string front = "unix:" + socketPath("replica", "fo-gw");
    if (!stack.start(endpoints, front, "failover"))
        return row;
    const unsigned joined = stack.gateway->healthPass();
    expect(joined == kReplicas, "replica/failover/cold-start",
           std::to_string(joined) + " of " +
               std::to_string(kReplicas) + " replicas joined");

    const std::size_t total = trace.records().size();
    auto sliceBounds = [total](unsigned seg) {
        return std::pair<std::size_t, std::size_t>{
            total * seg / segments, total * (seg + 1) / segments};
    };

    bool aborted = false;
    std::string error;
    {
        NetClient client(clientConfig(front, "replica-bench"));
        for (unsigned seg = 0; seg < segments && !aborted; ++seg) {
            switch (seg) {
              case 1:
                // Victim A dies between round trips. The gateway
                // discovers it inside this segment: a predict forward
                // strikes it, the first fanned train marks it Down.
                replicas[row.healVictim].kill();
                ++row.kills;
                break;
              case 2:
                // Restart, then heal through the production path: the
                // pass pings the Down replica, it answers, and the
                // full bootstrap runs inside healthPass().
                if (!replicas[row.healVictim].start(
                        endpoints[row.healVictim], kShards, error)) {
                    BenchState::instance().failures.push_back(
                        {"replica/failover/restart-heal", error});
                    aborted = true;
                    break;
                }
                if (stack.gateway->healthPass() != 1) {
                    BenchState::instance().failures.push_back(
                        {"replica/failover/heal",
                         "healthPass did not rejoin the victim"});
                }
                break;
              case 3:
                replicas[row.journalVictim].kill();
                ++row.kills;
                break;
              case 4:
                // Journal round: restart the victim and cut its
                // snapshot now, but leave it Joining for the whole
                // segment — every train below lands in its journal.
                if (!replicas[row.journalVictim].start(
                        endpoints[row.journalVictim], kShards,
                        error)) {
                    BenchState::instance().failures.push_back(
                        {"replica/failover/restart-journal", error});
                    aborted = true;
                    break;
                }
                if (auto begun = stack.gateway->beginJoin(
                        row.journalVictim);
                    !begun) {
                    BenchState::instance().failures.push_back(
                        {"replica/failover/begin-join",
                         begun.error().str()});
                    aborted = true;
                }
                break;
              default:
                break;
            }
            if (aborted)
                break;
            const auto [first, last] = sliceBounds(seg);
            row.counts.add(replaySlice(client, trace, first, last));
            if (seg == 4) {
                // The journaled segment is over: install the cut,
                // replay the journal, and re-enter rotation.
                if (auto finished = stack.gateway->finishJoin(
                        row.journalVictim);
                    !finished) {
                    BenchState::instance().failures.push_back(
                        {"replica/failover/finish-join",
                         finished.error().str()});
                    aborted = true;
                }
            }
        }

        auto stats = client.stats();
        if (stats) {
            row.stats = stats->aggregate;
        } else {
            BenchState::instance().failures.push_back(
                {"replica/failover/stats", stats.error().str()});
        }
        row.client = client.counters();
    }

    auto audit = stack.gateway->auditReplicas();
    if (audit) {
        row.auditEqual = audit->equal;
    } else {
        BenchState::instance().failures.push_back(
            {"replica/failover/audit", audit.error().str()});
    }

    for (const ReplicaSnapshot &snap :
         stack.gateway->replicaSnapshots()) {
        row.journaled += snap.counters.trainsJournaled;
        row.replayed += snap.counters.trainsReplayed;
        row.bootstrapBytes += snap.counters.bootstrapBytes;
    }
    row.gateway = stack.gateway->counters();
    row.reference =
        shardedReferenceStats(trace, hybridFactory(), kShards);
    row.statsEqual = row.stats == row.reference;
    row.completed = !aborted;

    tearDown(stack, replicas, "fo");

    expect(row.completed, "replica/failover/completed",
           "failover phase aborted early");
    expect(row.statsEqual, "replica/failover/stats-equal",
           "post-failover aggregate diverges from the unsharded "
           "reference (spec=" +
               std::to_string(row.stats.spec) + " vs " +
               std::to_string(row.reference.spec) + ")");
    expect(row.auditEqual, "replica/failover/audit-equal",
           "per-shard stats diverge across replicas after rejoin");
    expect(row.client.wrongReplies == 0,
           "replica/failover/wrong-replies",
           std::to_string(row.client.wrongReplies) +
               " replies paired with the wrong request");
    expect(row.counts.predictErrors == 0 &&
               row.counts.trainErrors == 0,
           "replica/failover/errors",
           std::to_string(row.counts.predictErrors) + " predicts / " +
               std::to_string(row.counts.trainErrors) +
               " trains surfaced to the client despite surviving "
               "replicas");
    expect(row.journaled > 0 && row.journaled == row.replayed,
           "replica/failover/journal",
           "journal did not fill and drain exactly (journaled=" +
               std::to_string(row.journaled) + ", replayed=" +
               std::to_string(row.replayed) + ")");
    return row;
}

/* ------------------------------------------------------------------ */
/* Harness plumbing.                                                  */
/* ------------------------------------------------------------------ */

struct ReplicaResults
{
    BalancedRow balanced;
    FailoverRow failover;
};

ReplicaResults
results()
{
    std::signal(SIGPIPE, SIG_IGN);
    ReplicaResults out;
    const std::shared_ptr<const Trace> trace = chaosBenchTrace();
    out.balanced = runBalancedPhase(*trace);
    out.failover = runFailoverPhase(*trace);
    return out;
}

void
printResults()
{
    const ReplicaResults res = results();

    Table balanced;
    balanced.row({"replicas", "shards", "loads", "pred_err",
                  "train_err", "preds_r0", "preds_r1", "preds_r2",
                  "train_sends", "cold_joins", "joins", "spec",
                  "spec_correct", "ref_spec", "ref_correct",
                  "stats_equal", "audit_equal"});
    balanced.newRow();
    balanced.cell(static_cast<std::uint64_t>(kReplicas));
    balanced.cell(static_cast<std::uint64_t>(kShards));
    balanced.cell(res.balanced.counts.loads);
    balanced.cell(res.balanced.counts.predictErrors);
    balanced.cell(res.balanced.counts.trainErrors);
    for (unsigned i = 0; i < kReplicas; ++i)
        balanced.cell(i < res.balanced.perReplicaPredicts.size()
                          ? res.balanced.perReplicaPredicts[i]
                          : 0);
    balanced.cell(res.balanced.gateway.trainSends);
    balanced.cell(res.balanced.coldJoins);
    balanced.cell(res.balanced.gateway.joins);
    balanced.cell(res.balanced.stats.spec);
    balanced.cell(res.balanced.stats.specCorrect);
    balanced.cell(res.balanced.reference.spec);
    balanced.cell(res.balanced.reference.specCorrect);
    balanced.cell(res.balanced.statsEqual ? "yes" : "NO");
    balanced.cell(res.balanced.auditEqual ? "yes" : "NO");
    printTable("Balanced replay: three replicas behind one endpoint "
               "must equal the unsharded reference bit for bit "
               "(byte-identical across same-seed runs)",
               balanced);

    Table failover;
    failover.row({"kills", "heal_victim", "journal_victim", "loads",
                  "pred_err", "train_err", "failovers", "joins",
                  "journaled", "replayed", "boot_bytes",
                  "wrong_replies", "spec", "ref_spec", "stats_equal",
                  "audit_equal", "completed"});
    failover.newRow();
    failover.cell(static_cast<std::uint64_t>(res.failover.kills));
    failover.cell(
        static_cast<std::uint64_t>(res.failover.healVictim));
    failover.cell(
        static_cast<std::uint64_t>(res.failover.journalVictim));
    failover.cell(res.failover.counts.loads);
    failover.cell(res.failover.counts.predictErrors);
    failover.cell(res.failover.counts.trainErrors);
    failover.cell(res.failover.gateway.predictFailovers);
    failover.cell(res.failover.gateway.joins);
    failover.cell(res.failover.journaled);
    failover.cell(res.failover.replayed);
    failover.cell(res.failover.bootstrapBytes);
    failover.cell(res.failover.client.wrongReplies);
    failover.cell(res.failover.stats.spec);
    failover.cell(res.failover.reference.spec);
    failover.cell(res.failover.statsEqual ? "yes" : "NO");
    failover.cell(res.failover.auditEqual ? "yes" : "NO");
    failover.cell(res.failover.completed ? "yes" : "NO");
    printTable("Seeded SIGKILL failover: heal round through "
               "healthPass, journal round through beginJoin/"
               "finishJoin; the client sees zero errors",
               failover);

    std::printf("\nexpected: stats_equal = yes and audit_equal = yes "
                "in both phases, wrong_replies = 0, zero client-"
                "visible errors, journaled == replayed > 0\n");
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace clap::bench;
    return benchMain("replica", argc, argv, printResults,
                     {seedFlag("--replica-seed", replicaSeed)});
}
