/**
 * @file
 * Tests for the replication layer (src/replica/): the replica table's
 * health state machine and pick policies as pure units, and the
 * gateway against in-process replica services — cold start, train
 * fan-out (sent to every replica before any reply is awaited),
 * predict failover, divergence handling (train failure marks a
 * replica Down), the snapshot-plus-journal rejoin, concurrent
 * clients, and the divergence auditor that cross-checks per-shard
 * stats bit for bit.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "core/hybrid_predictor.hh"
#include "net/server.hh"
#include "net/wire.hh"
#include "replica/chaos.hh"
#include "replica/gateway.hh"
#include "replica/table.hh"
#include "serve/service.hh"
#include "util/rng.hh"

namespace clap::replica
{
namespace
{

std::string
udsEndpoint(const char *tag)
{
    return "unix:/tmp/clap_test_replica_" +
           std::to_string(static_cast<long>(::getpid())) + "_" + tag +
           ".sock";
}

PredictorFactory
testHybridFactory()
{
    return [] { return std::make_unique<HybridPredictor>(HybridConfig{}); };
}

TrainRecord
someTrain(std::uint64_t pc)
{
    TrainRecord record;
    record.info.pc = pc;
    record.actualAddr = pc + 64;
    return record;
}

// --- Replica table state machine ----------------------------------

TEST(ReplicaTable, NewReplicaStartsDownAndPingDoesNotPromoteIt)
{
    ReplicaTable table;
    const unsigned r = table.addReplica("unix:/tmp/r0.sock");
    EXPECT_EQ(table.state(r), ReplicaState::Down);

    // A Down replica that answers a ping is a *restarted* process; it
    // must come back through the bootstrap, never through a ping.
    table.recordPingOk(r);
    EXPECT_EQ(table.state(r), ReplicaState::Down);
}

TEST(ReplicaTable, StrikesWalkHealthyThroughSuspectToDown)
{
    ReplicaTable table;
    const unsigned r = table.addReplica("unix:/tmp/r0.sock");
    table.beginJoin(r);
    table.completeJoin(r);
    ASSERT_EQ(table.state(r), ReplicaState::Healthy);

    EXPECT_EQ(table.strike(r, 3), ReplicaState::Suspect);
    EXPECT_EQ(table.strike(r, 3), ReplicaState::Suspect);
    EXPECT_EQ(table.strikes(r), 2u);

    // An answered ping heals a Suspect and clears its strikes.
    table.recordPingOk(r);
    EXPECT_EQ(table.state(r), ReplicaState::Healthy);
    EXPECT_EQ(table.strikes(r), 0u);

    EXPECT_EQ(table.strike(r, 3), ReplicaState::Suspect);
    EXPECT_EQ(table.strike(r, 3), ReplicaState::Suspect);
    EXPECT_EQ(table.strike(r, 3), ReplicaState::Down);
    EXPECT_EQ(table.counters(r).strikes, 5u);
}

TEST(ReplicaTable, MarkDownDropsTheJournal)
{
    ReplicaTable table;
    const unsigned r = table.addReplica("unix:/tmp/r0.sock");
    table.beginJoin(r);
    table.startJournal(r);
    EXPECT_TRUE(table.journalTrain(r, someTrain(0x100), 8));
    EXPECT_EQ(table.pendingTrains(r), 1u);

    table.markDown(r);
    EXPECT_EQ(table.state(r), ReplicaState::Down);
    EXPECT_FALSE(table.journaling(r));
    EXPECT_EQ(table.pendingTrains(r), 0u);
}

TEST(ReplicaTable, JournalRefusesBeyondCapacity)
{
    ReplicaTable table;
    const unsigned r = table.addReplica("unix:/tmp/r0.sock");
    table.beginJoin(r);
    table.startJournal(r);
    EXPECT_TRUE(table.journalTrain(r, someTrain(0x100), 2));
    EXPECT_TRUE(table.journalTrain(r, someTrain(0x108), 2));
    EXPECT_FALSE(table.journalTrain(r, someTrain(0x110), 2));
    EXPECT_EQ(table.pendingTrains(r), 2u);

    // Drain preserves arrival order.
    auto pending = table.takePending(r);
    ASSERT_EQ(pending.size(), 2u);
    EXPECT_EQ(pending[0].info.pc, 0x100u);
    EXPECT_EQ(pending[1].info.pc, 0x108u);
    EXPECT_EQ(table.pendingTrains(r), 0u);
}

TEST(ReplicaTable, MembershipViewsSplitByState)
{
    ReplicaTable table;
    const unsigned healthy = table.addReplica("unix:/tmp/r0.sock");
    const unsigned suspect = table.addReplica("unix:/tmp/r1.sock");
    const unsigned joining = table.addReplica("unix:/tmp/r2.sock");
    const unsigned down = table.addReplica("unix:/tmp/r3.sock");
    for (unsigned r : {healthy, suspect}) {
        table.beginJoin(r);
        table.completeJoin(r);
    }
    table.strike(suspect, 3);
    table.beginJoin(joining);
    (void)down;

    // Suspect stays in the fan-out (liveness doubt, not divergence);
    // Joining and Down get nothing directly.
    EXPECT_EQ(table.trainTargets(),
              (std::vector<unsigned>{healthy, suspect}));
    // Predicts prefer Healthy; Suspect only as a last resort.
    EXPECT_EQ(table.predictOrder(),
              (std::vector<unsigned>{healthy, suspect}));
    EXPECT_FALSE(table.allDown());

    table.markDown(healthy);
    table.markDown(suspect);
    table.abortJoin(joining);
    EXPECT_TRUE(table.allDown());
    EXPECT_TRUE(table.trainTargets().empty());
}

TEST(ReplicaTable, SeededPickIsDeterministicAndKeepsDrawCadence)
{
    auto build = [] {
        ReplicaTable table;
        for (int i = 0; i < 3; ++i) {
            const unsigned r = table.addReplica("unix:/tmp/r.sock");
            table.beginJoin(r);
            table.completeJoin(r);
        }
        return table;
    };

    ReplicaTable a = build();
    ReplicaTable b = build();
    Rng rngA(42), rngB(42);
    for (int i = 0; i < 64; ++i) {
        auto pickA = a.pickSeeded(rngA);
        auto pickB = b.pickSeeded(rngB);
        ASSERT_TRUE(pickA);
        ASSERT_TRUE(pickB);
        EXPECT_EQ(*pickA, *pickB);
        EXPECT_LT(*pickA, 3u);
    }

    // The fallback consumes exactly one draw too, so a replica
    // outage window does not shift every pick after it. Drive two
    // tables through the same call count, one with a mid-sequence
    // no-healthy window, and compare the picks after the window.
    ReplicaTable c = build();
    ReplicaTable d = build();
    Rng rngC(7), rngD(7);
    for (int i = 0; i < 8; ++i) {
        ASSERT_EQ(*c.pickSeeded(rngC), *d.pickSeeded(rngD));
    }
    // Window: every replica in d is Suspect (fallback path).
    for (unsigned r = 0; r < 3; ++r)
        d.strike(r, 99);
    for (int i = 0; i < 4; ++i) {
        (void)c.pickSeeded(rngC);
        auto fallback = d.pickSeeded(rngD);
        ASSERT_TRUE(fallback);
        EXPECT_EQ(*fallback, d.predictOrder().front());
    }
    // Window over: d heals; the two sequences realign immediately.
    for (unsigned r = 0; r < 3; ++r)
        d.recordPingOk(r);
    for (int i = 0; i < 8; ++i) {
        ASSERT_EQ(*c.pickSeeded(rngC), *d.pickSeeded(rngD));
    }
}

TEST(ReplicaTable, SeededPickFallsBackToSuspectThenErrors)
{
    ReplicaTable table;
    const unsigned r = table.addReplica("unix:/tmp/r0.sock");
    Rng rng(1);
    auto none = table.pickSeeded(rng);
    ASSERT_FALSE(none);
    EXPECT_EQ(none.error().code(), ErrorCode::ShardUnavailable);

    table.beginJoin(r);
    table.completeJoin(r);
    table.strike(r, 3); // Suspect
    auto suspect = table.pickSeeded(rng);
    ASSERT_TRUE(suspect);
    EXPECT_EQ(*suspect, r);
}

TEST(ReplicaTable, LeastInFlightPrefersHealthyAndBreaksTiesLow)
{
    ReplicaTable table;
    for (int i = 0; i < 3; ++i) {
        const unsigned r = table.addReplica("unix:/tmp/r.sock");
        table.beginJoin(r);
        table.completeJoin(r);
    }
    // Lowest gauge wins.
    auto pick = table.pickLeastInFlight({5, 1, 3});
    ASSERT_TRUE(pick);
    EXPECT_EQ(*pick, 1u);
    // Ties break toward the lowest index.
    pick = table.pickLeastInFlight({2, 2, 2});
    ASSERT_TRUE(pick);
    EXPECT_EQ(*pick, 0u);
    // An idle Suspect never beats a busy Healthy replica.
    table.strike(1, 99);
    pick = table.pickLeastInFlight({5, 0, 3});
    ASSERT_TRUE(pick);
    EXPECT_EQ(*pick, 2u);
}

TEST(ReplicaChaos, KillPlanIsSeedPureAndDrawnUpFront)
{
    const KillPlan a(0xfeed, 4, 6);
    const KillPlan b(0xfeed, 4, 6);
    ASSERT_EQ(a.rounds(), 6u);
    for (unsigned round = 0; round < a.rounds(); ++round) {
        EXPECT_EQ(a.victim(round), b.victim(round));
        EXPECT_LT(a.victim(round), 4u);
    }
    // Reading victims out of order changes nothing (all draws happen
    // at construction).
    const KillPlan c(0xfeed, 4, 6);
    EXPECT_EQ(c.victim(5), a.victim(5));
    EXPECT_EQ(c.victim(0), a.victim(0));
}

// --- Gateway over in-process replica services ---------------------

/**
 * Holds each replica's n-th Train until every replica sharing the hold
 * has received its n-th Train, or until @p hold_ms passes; then that
 * replica refuses the train and the timeout is counted. A fan-out
 * that awaits one replica's reply before it sends to the next can
 * never release a hold.
 */
class TrainHold
{
  public:
    TrainHold(unsigned replicas, int hold_ms)
        : seen_(replicas, 0), holdMs_(hold_ms)
    {
    }

    /** Replica @p replica received a train; false if the hold timed
     *  out before every replica had its copy. */
    bool
    arrive(unsigned replica)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        const unsigned n = ++seen_[replica];
        allArrived_.notify_all();
        const bool released = allArrived_.wait_for(
            lock, std::chrono::milliseconds(holdMs_), [&] {
                return *std::min_element(seen_.begin(), seen_.end()) >= n;
            });
        if (!released)
            ++timeouts_;
        return released;
    }

    unsigned
    timeouts() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return timeouts_;
    }

  private:
    mutable std::mutex mutex_;
    std::condition_variable allArrived_;
    std::vector<unsigned> seen_;
    unsigned timeouts_ = 0;
    int holdMs_;
};

/** clapd's request handler, with Trains optionally passed through a
 *  TrainHold first. */
class ReplicaHandler : public net::FrameHandler
{
  public:
    ReplicaHandler(PredictionService &service, TrainHold *hold,
                   unsigned replica)
        : inner_(service), hold_(hold), replica_(replica)
    {
    }

    net::HandlerReply
    handle(const net::Frame &frame) override
    {
        if (frame.type == net::FrameType::Train && hold_ != nullptr &&
            !hold_->arrive(replica_))
            return net::HandlerReply::fail(makeError(
                ErrorCode::DeadlineExceeded, "train hold timed out"));
        return inner_.handle(frame);
    }

  private:
    net::ServiceFrameHandler inner_;
    TrainHold *hold_;
    unsigned replica_;
};

/** One in-process replica: a service + NetServer. */
struct InProcReplica
{
    InProcReplica(const std::string &endpoint, TrainHold *hold,
                  unsigned replica)
        : service(makeConfig(), testHybridFactory()),
          handler(service, hold, replica),
          server(handler, makeServerConfig(endpoint))
    {
        auto started = server.start();
        EXPECT_TRUE(started) << started.error().str();
    }

    ~InProcReplica() { stop(); }

    void
    stop()
    {
        server.stop();
        service.stop();
    }

    static ServiceConfig
    makeConfig()
    {
        ServiceConfig config;
        config.shards = 2;
        return config;
    }

    static net::ServerConfig
    makeServerConfig(const std::string &endpoint)
    {
        net::ServerConfig config;
        config.endpoint = endpoint;
        return config;
    }

    PredictionService service;
    ReplicaHandler handler;
    net::NetServer server;
};

struct GatewayFixture
{
    explicit GatewayFixture(const char *tag, unsigned replicas = 2,
                            TrainHold *hold = nullptr)
    {
        for (unsigned i = 0; i < replicas; ++i) {
            endpoints.push_back(udsEndpoint(
                (std::string(tag) + std::to_string(i)).c_str()));
            backends.push_back(std::make_unique<InProcReplica>(
                endpoints.back(), hold, i));
        }
        ReplicaGatewayConfig config;
        config.replicas = endpoints;
        config.shards = 2;
        config.balance = ReplicaGatewayConfig::Balance::Seeded;
        config.balanceSeed = 0x5eed;
        gateway = std::make_unique<ReplicaGateway>(config);
        auto started = gateway->start();
        EXPECT_TRUE(started) << started.error().str();
    }

    /** Run the initial cold-start pass and expect every replica in. */
    void
    joinAll()
    {
        ASSERT_EQ(gateway->healthPass(), backends.size());
        for (const ReplicaSnapshot &snap : gateway->replicaSnapshots())
            EXPECT_EQ(snap.state, ReplicaState::Healthy);
    }

    net::HandlerReply
    predict(std::uint64_t pc)
    {
        LoadInfo info;
        info.pc = pc;
        net::Frame frame;
        frame.type = net::FrameType::Predict;
        frame.payload = net::encodePredictRequest(info);
        return gateway->handle(frame);
    }

    /** Predict through the gateway, then resolve it with a train —
     *  the immediate-update cycle one client load performs. */
    net::HandlerReply
    trainOnce(std::uint64_t pc, std::uint64_t actual)
    {
        net::HandlerReply predicted = predict(pc);
        EXPECT_FALSE(predicted.isError)
            << predicted.error.str();
        std::uint64_t echoedPc = 0;
        Prediction pred;
        EXPECT_TRUE(net::decodePredictResponse(predicted.payload,
                                               echoedPc, pred));
        EXPECT_EQ(echoedPc, pc);
        LoadInfo info;
        info.pc = pc;
        net::Frame frame;
        frame.type = net::FrameType::Train;
        frame.payload = net::encodeTrainRequest(info, actual, pred);
        return gateway->handle(frame);
    }

    std::vector<std::string> endpoints;
    std::vector<std::unique_ptr<InProcReplica>> backends;
    std::unique_ptr<ReplicaGateway> gateway;
};

TEST(ReplicaGateway, ValidatesItsConfig)
{
    ReplicaGatewayConfig config;
    EXPECT_FALSE(config.validate()); // no replicas
    config.replicas = {"unix:/tmp/r0.sock"};
    EXPECT_TRUE(config.validate());
    config.shards = 0;
    EXPECT_FALSE(config.validate());
    config.shards = 2;

    // A spec that is no endpoint names a replica no connect can
    // reach, and a repeated one would train one process twice.
    config.replicas = {"foo"};
    auto bad = config.validate();
    ASSERT_FALSE(bad);
    EXPECT_EQ(bad.error().code(), ErrorCode::InvalidConfig);
    config.replicas = {"unix:/tmp/r0.sock", "unix:/tmp/r1.sock",
                       "unix:/tmp/r0.sock"};
    auto repeated = config.validate();
    ASSERT_FALSE(repeated);
    EXPECT_EQ(repeated.error().code(), ErrorCode::InvalidConfig);
    // Compared as parsed endpoints: one port, spelled two ways.
    config.replicas = {"tcp:127.0.0.1:7000", "tcp:127.0.0.1:07000"};
    EXPECT_FALSE(config.validate());
    // Port 0 binds anywhere but connects nowhere.
    config.replicas = {"tcp:127.0.0.1:0"};
    EXPECT_FALSE(config.validate());
    config.replicas = {"tcp:127.0.0.1:7000", "tcp:127.0.0.1:7001"};
    EXPECT_TRUE(config.validate());
}

TEST(ReplicaGateway, ColdStartJoinsEveryBlankReplica)
{
    GatewayFixture fixture("cold");
    fixture.joinAll();

    const GatewayCounters counters = fixture.gateway->counters();
    EXPECT_EQ(counters.joins, 2u);

    // Exactly one replica cold-joined donorless; the other was
    // bootstrapped from it.
    std::uint64_t cold = 0, bootstrapped = 0;
    for (const ReplicaSnapshot &snap :
         fixture.gateway->replicaSnapshots()) {
        cold += snap.counters.coldJoins;
        bootstrapped += snap.counters.bootstraps;
    }
    EXPECT_EQ(cold, 1u);
    EXPECT_EQ(bootstrapped, 2u);
}

TEST(ReplicaGateway, PingIsAnsweredLocally)
{
    // Liveness of the front door, even with every replica down.
    GatewayFixture fixture("ping");
    net::Frame frame;
    frame.type = net::FrameType::Ping;
    const net::HandlerReply reply = fixture.gateway->handle(frame);
    EXPECT_FALSE(reply.isError);
    EXPECT_EQ(reply.type, net::FrameType::Pong);
}

TEST(ReplicaGateway, TrainsFanOutToEveryReplicaAndStatsAgree)
{
    GatewayFixture fixture("fan");
    fixture.joinAll();

    for (std::uint64_t i = 0; i < 32; ++i) {
        const net::HandlerReply reply =
            fixture.trainOnce(0x1000 + i * 8, 0x9000 + i * 64);
        ASSERT_FALSE(reply.isError) << reply.error.str();
        EXPECT_EQ(reply.type, net::FrameType::TrainOk);
    }

    const GatewayCounters counters = fixture.gateway->counters();
    EXPECT_EQ(counters.trains, 32u);
    EXPECT_EQ(counters.trainSends, 64u); // 32 trains x 2 replicas

    // Every replica resolved the same train stream, so the auditor
    // must find their per-shard stats bit-for-bit identical.
    auto audit = fixture.gateway->auditReplicas();
    ASSERT_TRUE(audit) << audit.error().str();
    EXPECT_TRUE(audit->equal);
    EXPECT_EQ(audit->replicasAudited.size(), 2u);
    EXPECT_EQ(audit->shardsCompared, 2u);
    EXPECT_EQ(fixture.backends[0]->service.aggregateStats(),
              fixture.backends[1]->service.aggregateStats());
}

TEST(ReplicaGateway, PredictFailsOverInsideOneRequest)
{
    GatewayFixture fixture("failover");
    fixture.joinAll();

    // Kill replica 0's process stand-in. Every subsequent predict
    // must still answer — the gateway strikes the dead replica and
    // retries the next one within the same request.
    fixture.backends[0]->stop();
    for (std::uint64_t i = 0; i < 8; ++i) {
        const net::HandlerReply reply = fixture.predict(0x2000 + i * 8);
        EXPECT_FALSE(reply.isError) << reply.error.str();
        EXPECT_EQ(reply.type, net::FrameType::PredictOk);
    }
    EXPECT_EQ(fixture.gateway->counters().predictsFailed, 0u);

    const std::vector<ReplicaSnapshot> snaps =
        fixture.gateway->replicaSnapshots();
    EXPECT_NE(snaps[0].state, ReplicaState::Healthy);
    EXPECT_GT(snaps[0].counters.predictFailures, 0u);
    EXPECT_EQ(snaps[1].state, ReplicaState::Healthy);
}

TEST(ReplicaGateway, TrainFailureMarksTheReplicaDownNotRetried)
{
    // Replica 1 is the fan-out's last target and replica 0 its first:
    // a dead first replica must not keep the train from the rest.
    for (const unsigned victim : {1u, 0u}) {
        SCOPED_TRACE("victim replica " + std::to_string(victim));
        const unsigned survivor = 1 - victim;
        GatewayFixture fixture(victim == 1 ? "divergent1_" : "divergent0_");
        fixture.joinAll();

        fixture.backends[victim]->stop();
        const net::HandlerReply reply = fixture.trainOnce(0x3000, 0x9100);
        // The surviving replica applied it, so the client's train
        // succeeds; the dead replica's outcome is unknown -> Down.
        EXPECT_FALSE(reply.isError) << reply.error.str();
        const std::vector<ReplicaSnapshot> snaps =
            fixture.gateway->replicaSnapshots();
        EXPECT_EQ(snaps[victim].state, ReplicaState::Down);
        EXPECT_EQ(snaps[victim].counters.trainFailures, 1u);
        EXPECT_EQ(snaps[survivor].state, ReplicaState::Healthy);
        EXPECT_EQ(snaps[survivor].counters.trainFailures, 0u);
        EXPECT_EQ(snaps[survivor].counters.trainsApplied, 1u);
    }
}

TEST(ReplicaGateway, TrainReachesEveryReplicaBeforeAnyReplies)
{
    // Each replica holds a train until all three have it. The hold
    // gives up well inside the gateway's request deadline, so a
    // fan-out that waited for one reply before the next send fails
    // here instead of hanging.
    constexpr int kHoldMs = 1000;
    ASSERT_LT(kHoldMs,
              ReplicaGatewayConfig::defaultClient().requestDeadlineMs);
    TrainHold hold(3, kHoldMs);
    GatewayFixture fixture("hold", 3, &hold);
    fixture.joinAll();

    for (std::uint64_t i = 0; i < 2; ++i) {
        const net::HandlerReply reply =
            fixture.trainOnce(0x6000 + i * 8, 0xb000 + i * 64);
        ASSERT_FALSE(reply.isError) << reply.error.str();
    }
    EXPECT_EQ(hold.timeouts(), 0u);
    for (const ReplicaSnapshot &snap :
         fixture.gateway->replicaSnapshots()) {
        EXPECT_EQ(snap.state, ReplicaState::Healthy);
        EXPECT_EQ(snap.counters.trainsApplied, 2u);
    }
}

TEST(ReplicaGateway, ConcurrentClientsKeepReplicasEqual)
{
    // Four client threads through one gateway, as clapr serves its
    // connections: fan-outs hold several links at once while predicts
    // take one. The threads share PCs, so their trains interleave on
    // the same static loads; the global train order keeps every
    // replica's stats equal anyway.
    GatewayFixture fixture("concurrent", 3);
    fixture.joinAll();

    constexpr unsigned kThreads = 4;
    constexpr unsigned kCycles = 200;
    std::atomic<unsigned> errors{0};
    std::vector<std::thread> clients;
    for (unsigned t = 0; t < kThreads; ++t) {
        clients.emplace_back([&fixture, &errors, t] {
            for (std::uint64_t i = 0; i < kCycles; ++i) {
                const net::HandlerReply reply = fixture.trainOnce(
                    0x7000 + (i % 32) * 8, 0xc0000 + t * 0x1000 + i * 8);
                if (reply.isError)
                    errors.fetch_add(1);
            }
        });
    }
    for (std::thread &client : clients)
        client.join();

    EXPECT_EQ(errors.load(), 0u);
    const GatewayCounters counters = fixture.gateway->counters();
    EXPECT_EQ(counters.predictsFailed, 0u);
    EXPECT_EQ(counters.trains, kThreads * kCycles);
    EXPECT_EQ(counters.trainSends, 3u * kThreads * kCycles);
    auto audit = fixture.gateway->auditReplicas();
    ASSERT_TRUE(audit) << audit.error().str();
    EXPECT_TRUE(audit->equal);
    EXPECT_EQ(audit->replicasAudited.size(), 3u);
    const PredictionStats first =
        fixture.backends[0]->service.aggregateStats();
    EXPECT_EQ(first.loads, kThreads * kCycles);
    EXPECT_EQ(fixture.backends[1]->service.aggregateStats(), first);
    EXPECT_EQ(fixture.backends[2]->service.aggregateStats(), first);
}

TEST(ReplicaGateway, AllReplicasDownIsAStructuredRefusal)
{
    GatewayFixture fixture("alldown");
    // No joinAll: every replica is still Down.
    const net::HandlerReply predicted = fixture.predict(0x4000);
    EXPECT_TRUE(predicted.isError);
    EXPECT_EQ(predicted.error.code(), ErrorCode::ShardUnavailable);

    LoadInfo info;
    info.pc = 0x4000;
    net::Frame train;
    train.type = net::FrameType::Train;
    train.payload = net::encodeTrainRequest(info, 0x9000, Prediction{});
    const net::HandlerReply trained = fixture.gateway->handle(train);
    EXPECT_TRUE(trained.isError);
    EXPECT_EQ(fixture.gateway->counters().trainsUnplaced, 1u);
}

TEST(ReplicaGateway, JournaledJoinReplaysTheGapAndConverges)
{
    GatewayFixture fixture("journal");
    fixture.joinAll();

    for (std::uint64_t i = 0; i < 8; ++i)
        fixture.trainOnce(0x5000 + i * 8, 0xa000 + i * 64);

    // Replica 1 diverges: forced Down (the chaos hook — exactly what
    // a failed train does), then misses a window of trains.
    fixture.gateway->forceDown(1);
    for (std::uint64_t i = 8; i < 16; ++i)
        fixture.trainOnce(0x5000 + i * 8, 0xa000 + i * 64);

    // Rejoin: cut the snapshot, keep training (the gap lands in the
    // journal), then finish — install, replay, back in rotation.
    auto begun = fixture.gateway->beginJoin(1);
    ASSERT_TRUE(begun) << begun.error().str();
    for (std::uint64_t i = 16; i < 24; ++i)
        fixture.trainOnce(0x5000 + i * 8, 0xa000 + i * 64);
    {
        const std::vector<ReplicaSnapshot> snaps =
            fixture.gateway->replicaSnapshots();
        EXPECT_EQ(snaps[1].state, ReplicaState::Joining);
        EXPECT_EQ(snaps[1].pendingTrains, 8u);
    }
    auto finished = fixture.gateway->finishJoin(1);
    ASSERT_TRUE(finished) << finished.error().str();

    const std::vector<ReplicaSnapshot> snaps =
        fixture.gateway->replicaSnapshots();
    EXPECT_EQ(snaps[1].state, ReplicaState::Healthy);
    EXPECT_EQ(snaps[1].counters.trainsJournaled, 8u);
    EXPECT_EQ(snaps[1].counters.trainsReplayed, 8u);
    EXPECT_GT(snaps[1].counters.bootstrapBytes, 0u);

    // After snapshot + replay the rejoined replica is
    // indistinguishable: keep training and audit.
    for (std::uint64_t i = 24; i < 32; ++i)
        fixture.trainOnce(0x5000 + i * 8, 0xa000 + i * 64);
    auto audit = fixture.gateway->auditReplicas();
    ASSERT_TRUE(audit) << audit.error().str();
    EXPECT_TRUE(audit->equal);
    EXPECT_EQ(fixture.backends[0]->service.aggregateStats(),
              fixture.backends[1]->service.aggregateStats());
}

TEST(ReplicaGateway, BeginJoinRequiresADownReplicaAndADonor)
{
    GatewayFixture fixture("guards");
    fixture.joinAll();

    // Healthy replicas cannot re-begin a join.
    auto healthy = fixture.gateway->beginJoin(0);
    EXPECT_FALSE(healthy);
    EXPECT_EQ(healthy.error().code(), ErrorCode::InvalidArgument);
    auto range = fixture.gateway->beginJoin(99);
    EXPECT_FALSE(range);

    // With every replica Down there is no donor to cut from.
    fixture.gateway->forceDown(0);
    fixture.gateway->forceDown(1);
    auto donorless = fixture.gateway->beginJoin(0);
    EXPECT_FALSE(donorless);
    EXPECT_EQ(donorless.error().code(), ErrorCode::ShardUnavailable);
}

TEST(ReplicaGateway, UnexpectedFrameIsAProtocolErrorAndDrops)
{
    GatewayFixture fixture("proto");
    // HelloOk never flows client -> server; snapshot frames go to a
    // clapd (the bootstrap's donor and joiner), never to the gateway.
    net::Frame hello;
    hello.type = net::FrameType::HelloOk;
    net::Frame fetch;
    fetch.type = net::FrameType::SnapshotFetch;
    fetch.payload = net::encodeSnapshotRequest(0);
    net::Frame install;
    install.type = net::FrameType::SnapshotInstall;
    install.payload = net::encodeSnapshotData(0, "state");
    for (const net::Frame &frame : {hello, fetch, install}) {
        const net::HandlerReply reply = fixture.gateway->handle(frame);
        EXPECT_TRUE(reply.isError) << net::frameTypeName(frame.type);
        EXPECT_TRUE(reply.drop) << net::frameTypeName(frame.type);
        EXPECT_EQ(reply.error.code(), ErrorCode::ProtocolError)
            << net::frameTypeName(frame.type);
    }
}

} // namespace
} // namespace clap::replica
