/**
 * @file
 * The wire-open workload: one spawned clapd (4 shards, default flags)
 * on a Unix socket, 4 NetClient connections on 4 threads, and seeded
 * Poisson arrivals at kOfferedRate loads/s in total; each arrival is a
 * predict then a train. The traffic is arrival-driven: requests of the
 * four connections meet in the daemon as they come due, so queueing in
 * the wire codec, sockets, connection threads or admission shows in
 * the requests behind a slow one, which a closed loop would hide. The
 * rate is about a third of the closed-loop capacity, so queueing shows
 * in the tail rather than saturating the daemon, and a host slowed by
 * its neighbours still keeps up with the schedule.
 *
 * The end-to-end latency is timed from the send. Latency from the due
 * time, which also charges a request for the generator's own backlog
 * behind an earlier one on its connection, and the generator's
 * lateness are diagnostic lines: on a shared host every hypervisor
 * stall of the generator becomes such a backlog, and in runs where
 * 25% of the vCPU time was stolen the due-time p90 read 4-14x its
 * quiet value while the p90 from the send read under 2.3x.
 */

#include <sys/prctl.h>

#include <cmath>
#include <thread>

#include "daemon.hh"
#include "ladder.hh"
#include "util/bits.hh"

namespace clap::ladder
{

namespace
{

constexpr unsigned kConnections = 4;
constexpr unsigned kShards = 4;
constexpr std::size_t kTraceLen = 1'000'000;
constexpr double kOfferedRate = 6000.0;

std::int64_t
toNs(Clock::time_point t)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               t.time_since_epoch())
        .count();
}

void
arrivalLoop(net::NetClient &client, const Trace &trace, ClientTally &tally,
            const Window &window, PoissonSchedule schedule,
            Clock::time_point origin)
{
    // Wake on time: the default 50 µs timer slack would read as
    // generator lateness comparable to the round trip itself.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    std::size_t pos = 0;
    for (;;) {
        const auto due = origin + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(
                                          schedule.next()));
        std::this_thread::sleep_until(due);
        const int s = window.second.load(std::memory_order_relaxed);
        if (s == Window::kStop)
            return;
        const bool traced = s >= window.tracedFrom;
        const TraceRecord &rec = nextLoad(trace, pos, client);
        ArrivalTiming timing;
        timing.dueNs = toNs(due);
        timing.sentNs = toNs(Clock::now());
        ++tally.attempted;
        auto pred = predictLoad(client, rec);
        timing.doneNs = toNs(Clock::now());
        if (!pred) {
            ++tally.failed;
            continue;
        }
        if (s >= 0) {
            tally.predictNs[s].push_back(sampleNs(timing.rttNs()));
            tally.dueNs.push_back(sampleNs(timing.latencyNs()));
            tally.lateNs.push_back(sampleNs(timing.latenessNs()));
        }
        ++tally.attempted;
        const auto train_sent = Clock::now();
        auto trained = trainLoad(client, rec, *pred);
        if (traced)
            tally.trainNs.push_back(sampleNs(train_sent, Clock::now()));
        if (!trained) {
            ++tally.failed;
            continue;
        }
        tally.pairs.fetch_add(1, std::memory_order_relaxed);
    }
}

/** Everything one set-up builds. */
struct Stack
{
    std::vector<std::shared_ptr<const Trace>> traces;
    std::unique_ptr<Daemon> clapd;
    std::vector<std::unique_ptr<net::NetClient>> clients;
};

bool
buildStack(const Options &opts, const std::vector<TraceSpec> &specs,
           TraceCost &cost, Stack &stack, Report &report)
{
    stack.traces = generateTraces(specs, kTraceLen, cost);
    const std::string socket = opts.runDir + "/clapd.sock";
    stack.clapd = std::make_unique<Daemon>();
    std::string error;
    if (!stack.clapd->start(LADDER_CLAPD,
                            {"--endpoint=unix:" + socket,
                             "--shards=" + std::to_string(kShards)},
                            socket, opts.runDir + "/clapd.log", error)) {
        report.fail("clapd start: " + error);
        return false;
    }
    for (unsigned c = 0; c < kConnections; ++c) {
        stack.clients.push_back(std::make_unique<net::NetClient>(
            stack.clapd->clientConfig("ladder-wire")));
        if (auto pinged = stack.clients.back()->ping(); !pinged) {
            report.fail("connect to clapd: " + pinged.error().str());
            return false;
        }
    }
    return true;
}

} // namespace

Report
runWireOpen(const Options &opts)
{
    Report report;
    const std::vector<TraceSpec> specs =
        suiteHeads({"INT", "MM", "TPC", "NT"}, opts.seed);

    setStage("set-up");
    TraceCost cost;
    Stack stack;
    std::vector<double> setup_s;
    for (int i = 0; i < kSetupRepeats; ++i) {
        if (stack.clapd) {
            stack.clients.clear();
            stack.clapd->shutdown();
            stack = Stack{};
        }
        const auto begin = Clock::now();
        if (!buildStack(opts, specs, cost, stack, report))
            return report;
        setup_s.push_back(secondsSince(begin));
    }
    net::NetClient admin(stack.clapd->clientConfig("ladder-admin"));

    Window window(opts);
    Tallies tallies;
    for (unsigned c = 0; c < kConnections; ++c)
        tallies.push_back(std::make_unique<ClientTally>(window));
    const auto origin = Clock::now();
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < kConnections; ++c) {
        threads.emplace_back([&, c] {
            arrivalLoop(*stack.clients[c], *stack.traces[c], *tallies[c],
                        window,
                        PoissonSchedule(kOfferedRate / kConnections,
                                        mix64(opts.seed * kConnections + c)),
                        origin);
        });
    }
    Scrape before;
    const WindowSeconds seconds = runWindow(window, tallies, [&] {
        before = scrapeRemote(admin, report);
    });
    for (std::thread &thread : threads)
        thread.join();
    const Scrape server = scrapeRemote(admin, report).since(before);
    const double peak_rss = peakRssMib() + stack.clapd->peakRssMib();

    reportWindow(report, window, seconds, tallies);
    reportSetup(report, setup_s);
    report.set("peak_rss_mib", peak_rss);
    auto pool = [&](auto pick) { return poolUs(tallies, pick); };
    summarizeUs(report, "latency_from_due_us (pooled)",
                pool([](const ClientTally &t) -> const auto & {
                    return t.dueNs;
                }));
    summarizeUs(report, "loadgen.late_us (pooled)",
                pool([](const ClientTally &t) -> const auto & {
                    return t.lateNs;
                }));

    setStage("checks");
    net::ClientCounters counters;
    for (const auto &client : stack.clients) {
        counters.retries += client->counters().retries;
        counters.wrongReplies += client->counters().wrongReplies;
    }
    if (counters.wrongReplies != 0)
        report.fail(std::to_string(counters.wrongReplies) +
                    " replies paired with the wrong request");
    // A generator that fell behind its schedule (the host stole its
    // time) invalidates the run's latencies, not the daemon's replies:
    // a diagnostic, not a failed check.
    double achieved = 0.0;
    for (double rate : seconds.rates)
        achieved += rate / static_cast<double>(seconds.rates.size());
    if (achieved < 0.98 * kOfferedRate)
        report.note("INVALID RUN: the load generator achieved " +
                    std::to_string(std::lround(achieved)) + " of " +
                    std::to_string(std::lround(kOfferedRate)) +
                    " loads/s, so the latencies are not at the offered "
                    "rate");
    stack.clients.clear();
    if (!stack.clapd->shutdown())
        report.fail("clapd did not shut down cleanly");

    if (!opts.traced)
        return report;

    setStage("per-layer");
    reportTraceCost(report, cost);
    summarizeUs(report, "net.predict_rtt_us",
                poolPredictUs(tallies, window.tracedFrom, window.seconds));
    summarizeUs(report, "net.train_rtt_us",
                pool([](const ClientTally &t) -> const auto & {
                    return t.trainNs;
                }));
    report.set("loadgen.achieved_rate",
               median({seconds.rates.begin() + window.tracedFrom,
                       seconds.rates.end()}));
    report.set("net.retries", static_cast<double>(counters.retries));
    report.set("net.wrong_replies",
               static_cast<double>(counters.wrongReplies));
    reportNetStages(report, server);
    reportServeRegistry(report, server);
    probeLayers(report, *stack.traces.front());
    return report;
}

} // namespace clap::ladder
