/**
 * @file
 * The serve-closed workload: the in-process sharded PredictionService
 * at its clapd configuration (4 threaded shards, audit after every
 * batch), driven by 4 client threads, one ClientSession each, that
 * replay the INT/MM/TPC/NT representative traces in a closed loop
 * (predict, train, next load). No sockets: the queue, the predict
 * rendezvous, batching and the per-batch audit do nearly all the
 * work, a layer the sweep never touches.
 */

#include <thread>

#include "core/hybrid_predictor.hh"
#include "ladder.hh"
#include "serve/crosscheck.hh"
#include "serve/service.hh"

namespace clap::ladder
{

namespace
{

constexpr unsigned kClients = 4;
constexpr unsigned kShards = 4;
constexpr std::size_t kTraceLen = 1'000'000;

PredictorFactory
hybridFactory()
{
    return [] { return std::make_unique<HybridPredictor>(HybridConfig{}); };
}

struct ShardTotals
{
    std::uint64_t trains = 0;
    std::uint64_t audits = 0;
    std::size_t maxQueueDepth = 0;
};

ShardTotals
shardTotals(const PredictionService &service)
{
    ShardTotals totals;
    for (const ShardSnapshot &shard : service.snapshot()) {
        totals.trains += shard.trains;
        totals.audits += shard.audits;
        totals.maxQueueDepth =
            std::max(totals.maxQueueDepth, shard.maxQueueDepth);
    }
    return totals;
}

} // namespace

Report
runServeClosed(const Options &opts)
{
    Report report;
    const std::vector<TraceSpec> specs =
        suiteHeads({"INT", "MM", "TPC", "NT"}, opts.seed);
    ServiceConfig config;
    config.shards = kShards;

    setStage("set-up");
    TraceCost cost;
    std::vector<std::shared_ptr<const Trace>> traces;
    std::unique_ptr<PredictionService> service;
    std::vector<double> setup_s;
    for (int i = 0; i < kSetupRepeats; ++i) {
        service.reset();
        traces.clear();
        const auto begin = Clock::now();
        traces = generateTraces(specs, kTraceLen, cost);
        service = std::make_unique<PredictionService>(config,
                                                      hybridFactory());
        setup_s.push_back(secondsSince(begin));
    }

    Window window(opts);
    Tallies tallies;
    for (unsigned c = 0; c < kClients; ++c)
        tallies.push_back(std::make_unique<ClientTally>(window));
    std::vector<std::thread> clients;
    for (unsigned c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c, session = service->connect()]() mutable {
            closedLoop(session, *traces[c], *tallies[c], window);
        });
    }
    Scrape registry_before;
    ShardTotals shards_before;
    const WindowSeconds seconds = runWindow(window, tallies, [&] {
        registry_before = scrapeLocal();
        shards_before = shardTotals(*service);
    });
    for (std::thread &client : clients)
        client.join();
    service->stop();
    const Scrape registry = scrapeLocal().since(registry_before);
    const ShardTotals shards = shardTotals(*service);
    const double peak_rss = peakRssMib();

    reportWindow(report, window, seconds, tallies);
    reportSetup(report, setup_s);
    report.set("peak_rss_mib", peak_rss);

    setStage("checks");
    if (auto health = service->health(); !health)
        report.fail("service health: " + health.error().str());
    // Deterministic replay of every client trace at the same shard
    // count must equal the sharded PredictorSim reference. A sparser
    // audit keeps the batch-per-request replay affordable; audits do
    // not change stats.
    std::vector<std::string> diverged(traces.size());
    {
        ServiceConfig check = config;
        check.auditEveryBatches = 256;
        std::vector<std::thread> checkers;
        for (std::size_t t = 0; t < traces.size(); ++t) {
            checkers.emplace_back([&, t] {
                auto result =
                    crosscheckTrace(*traces[t], hybridFactory(), check);
                if (!result)
                    diverged[t] = result.error().str();
                else if (!result->equal())
                    diverged[t] = "service stats differ from the "
                                  "sharded reference";
            });
        }
        for (std::thread &checker : checkers)
            checker.join();
    }
    for (std::size_t t = 0; t < traces.size(); ++t)
        if (!diverged[t].empty())
            report.fail("crosscheck " + specs[t].name + ": " + diverged[t]);

    if (!opts.traced)
        return report;

    setStage("per-layer");
    reportTraceCost(report, cost);
    summarizeUs(report, "serve.train_us",
                poolUs(tallies, [](const ClientTally &t) -> const auto & {
                    return t.trainNs;
                }));
    reportServeRegistry(report, registry);
    const std::uint64_t loads = shards.trains - shards_before.trains;
    if (loads > 0)
        report.set("serve.audits_per_load",
                   static_cast<double>(shards.audits - shards_before.audits) /
                       static_cast<double>(loads));
    // snapshot() keeps the exact high-water mark (over the whole run).
    report.set("serve.max_queue_depth",
               static_cast<double>(shards.maxQueueDepth));
    probeLayers(report, *traces.front());
    return report;
}

} // namespace clap::ladder
