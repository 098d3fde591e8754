/**
 * @file
 * The fleet-closed workload: a spawned clapr in front of two spawned
 * clapd replicas (2 shards each), driven by 2 closed-loop connections
 * replaying the INT and TPC representative traces. It is the only
 * workload where writes and reads share a layer: every train fans out
 * to both replicas under the gateway's global order, while each
 * predict goes to one replica (clapr's default least-in-flight
 * balance; the run seed goes in as the balance seed, which only the
 * seeded policy reads).
 */

#include <cstdio>
#include <fstream>
#include <thread>

#include "daemon.hh"
#include "ladder.hh"
#include "util/bits.hh"

namespace clap::ladder
{

namespace
{

constexpr unsigned kConnections = 2;
constexpr unsigned kReplicas = 2;
constexpr unsigned kShards = 2;
constexpr std::size_t kTraceLen = 1'000'000;

/** Everything one set-up builds. */
struct Fleet
{
    std::vector<std::shared_ptr<const Trace>> traces;
    std::vector<std::unique_ptr<Daemon>> replicas;
    std::unique_ptr<Daemon> clapr;
    std::vector<std::unique_ptr<net::NetClient>> clients;

    /** Stop clapr, then the replicas it fronted; true when all three
     *  exited cleanly. */
    bool
    shutdown()
    {
        clients.clear();
        bool clean = !clapr || clapr->shutdown();
        for (auto &replica : replicas)
            clean = replica->shutdown() && clean;
        return clean;
    }
};

bool
buildFleet(const Options &opts, const std::vector<TraceSpec> &specs,
           TraceCost &cost, Fleet &fleet, Report &report)
{
    fleet.traces = generateTraces(specs, kTraceLen, cost);
    std::string error;
    std::vector<std::string> clapr_args;
    for (unsigned r = 0; r < kReplicas; ++r) {
        const std::string name = "clapd" + std::to_string(r);
        const std::string socket = opts.runDir + "/" + name + ".sock";
        fleet.replicas.push_back(std::make_unique<Daemon>());
        if (!fleet.replicas.back()->start(
                LADDER_CLAPD,
                {"--endpoint=unix:" + socket,
                 "--shards=" + std::to_string(kShards)},
                socket, opts.runDir + "/" + name + ".log", error)) {
            report.fail(name + " start: " + error);
            return false;
        }
        clapr_args.push_back("--replica=unix:" + socket);
    }
    const std::string socket = opts.runDir + "/clapr.sock";
    clapr_args.push_back("--endpoint=unix:" + socket);
    clapr_args.push_back("--shards=" + std::to_string(kShards));
    clapr_args.push_back("--balance-seed=" +
                         std::to_string(mix64(opts.seed)));
    fleet.clapr = std::make_unique<Daemon>();
    // clapr signals readiness after its first health pass, so the
    // replicas have cold-joined by then.
    if (!fleet.clapr->start(LADDER_CLAPR, clapr_args, socket,
                            opts.runDir + "/clapr.log", error)) {
        report.fail("clapr start: " + error);
        return false;
    }
    for (unsigned c = 0; c < kConnections; ++c) {
        fleet.clients.push_back(std::make_unique<net::NetClient>(
            fleet.clapr->clientConfig("ladder-fleet")));
        if (auto pinged = fleet.clients.back()->ping(); !pinged) {
            report.fail("connect to clapr: " + pinged.error().str());
            return false;
        }
    }
    return true;
}

/** Predict failovers from clapr's exit summary (its last one). */
bool
parseFailovers(const std::string &log_path, double &failovers)
{
    std::ifstream log(log_path);
    bool found = false;
    for (std::string line; std::getline(log, line);) {
        unsigned long long predicts = 0;
        unsigned long long failed_over = 0;
        if (std::sscanf(line.c_str(),
                        "clapr: %llu predict(s) (%llu failover(s)",
                        &predicts, &failed_over) == 2) {
            failovers = static_cast<double>(failed_over);
            found = true;
        }
    }
    return found;
}

} // namespace

Report
runFleetClosed(const Options &opts)
{
    Report report;
    const std::vector<TraceSpec> specs =
        suiteHeads({"INT", "TPC"}, opts.seed);

    setStage("set-up");
    TraceCost cost;
    Fleet fleet;
    std::vector<double> setup_s;
    for (int i = 0; i < kSetupRepeats; ++i) {
        if (fleet.clapr) {
            fleet.shutdown();
            fleet = Fleet{};
        }
        const auto begin = Clock::now();
        if (!buildFleet(opts, specs, cost, fleet, report))
            return report;
        setup_s.push_back(secondsSince(begin));
    }
    net::NetClient front_admin(
        fleet.clapr->clientConfig("ladder-admin"));
    std::vector<std::unique_ptr<net::NetClient>> replica_admins;
    for (const auto &replica : fleet.replicas)
        replica_admins.push_back(std::make_unique<net::NetClient>(
            replica->clientConfig("ladder-admin")));
    auto scrapeReplicas = [&] {
        Scrape sum;
        for (auto &admin : replica_admins)
            sum.add(scrapeRemote(*admin, report));
        return sum;
    };

    Window window(opts);
    Tallies tallies;
    for (unsigned c = 0; c < kConnections; ++c)
        tallies.push_back(std::make_unique<ClientTally>(window));
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < kConnections; ++c) {
        threads.emplace_back([&, c] {
            closedLoop(*fleet.clients[c], *fleet.traces[c], *tallies[c],
                       window);
        });
    }
    Scrape front_before;
    Scrape replicas_before;
    const WindowSeconds seconds = runWindow(window, tallies, [&] {
        front_before = scrapeRemote(front_admin, report);
        replicas_before = scrapeReplicas();
    });
    for (std::thread &thread : threads)
        thread.join();
    const Scrape front = scrapeRemote(front_admin, report).since(front_before);
    const Scrape served = scrapeReplicas().since(replicas_before);
    double peak_rss = peakRssMib() + fleet.clapr->peakRssMib();
    for (const auto &replica : fleet.replicas)
        peak_rss += replica->peakRssMib();

    reportWindow(report, window, seconds, tallies);
    reportSetup(report, setup_s);
    report.set("peak_rss_mib", peak_rss);

    // Every train went to both replicas in one global order, so after
    // the drain their per-shard stats must be identical.
    setStage("checks");
    std::vector<net::ServiceWireStats> stats;
    for (unsigned r = 0; r < kReplicas; ++r) {
        auto replica_stats = replica_admins[r]->stats();
        if (!replica_stats) {
            report.fail("stats of replica " + std::to_string(r) + ": " +
                        replica_stats.error().str());
            break;
        }
        stats.push_back(std::move(*replica_stats));
    }
    if (stats.size() == kReplicas) {
        for (unsigned s = 0; s < kShards; ++s) {
            if (stats[0].shards.size() != kShards ||
                stats[1].shards.size() != kShards ||
                !(stats[0].shards[s].stats == stats[1].shards[s].stats))
                report.fail("replica shard " + std::to_string(s) +
                            " stats diverge after the drain");
        }
    }
    net::ClientCounters counters;
    for (const auto &client : fleet.clients) {
        counters.retries += client->counters().retries;
        counters.wrongReplies += client->counters().wrongReplies;
    }
    if (counters.wrongReplies != 0)
        report.fail(std::to_string(counters.wrongReplies) +
                    " replies paired with the wrong request");
    replica_admins.clear();
    if (!fleet.shutdown())
        report.fail("the fleet did not shut down cleanly");

    if (!opts.traced)
        return report;

    setStage("per-layer");
    reportTraceCost(report, cost);
    summarizeUs(report, "replica.predict_rtt_us",
                poolPredictUs(tallies, window.tracedFrom, window.seconds));
    summarizeUs(report, "replica.train_rtt_us",
                poolUs(tallies, [](const ClientTally &t) -> const auto & {
                    return t.trainNs;
                }));
    // Over the whole run: trains applied per client train, and the
    // busiest replica's share of the predicts.
    std::uint64_t trains_applied = 0;
    std::uint64_t predicts = 0;
    std::uint64_t busiest = 0;
    for (const net::ServiceWireStats &replica : stats) {
        std::uint64_t served_here = 0;
        for (const net::ShardWireStats &shard : replica.shards) {
            trains_applied += shard.trains;
            served_here += shard.predicts;
        }
        predicts += served_here;
        busiest = std::max(busiest, served_here);
    }
    std::uint64_t pairs = 0;
    for (const auto &tally : tallies)
        pairs += tally->pairs.load();
    if (pairs > 0)
        report.set("replica.train_fanout",
                   static_cast<double>(trains_applied) / pairs);
    if (predicts > 0)
        report.set("replica.predict_share.max",
                   static_cast<double>(busiest) / predicts);
    double failovers = 0.0;
    if (parseFailovers(opts.runDir + "/clapr.log", failovers))
        report.set("replica.failovers", failovers);
    else
        report.note("clapr exit summary not found; replica.failovers "
                    "unknown");
    report.set("net.retries", static_cast<double>(counters.retries));
    report.set("net.wrong_replies",
               static_cast<double>(counters.wrongReplies));
    reportNetStages(report, front);
    reportServeRegistry(report, served);
    probeLayers(report, *fleet.traces.front());
    return report;
}

} // namespace clap::ladder
