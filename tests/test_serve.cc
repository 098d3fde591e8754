/** @file Tests for the sharded prediction service (src/serve/). */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "core/hybrid_predictor.hh"
#include "core/stride_predictor.hh"
#include "serve/crosscheck.hh"
#include "serve/service.hh"
#include "sim/predictor_sim.hh"
#include "workloads/composer.hh"
#include "workloads/suites.hh"

namespace clap
{
namespace
{

constexpr std::size_t testTraceInsts = 20000;

PredictorFactory
testHybridFactory()
{
    return [] { return std::make_unique<HybridPredictor>(HybridConfig{}); };
}

Trace
testTrace(const char *suite = "INT")
{
    return generateTrace(buildSuite(suite).front(), testTraceInsts);
}

// --- ServiceConfig validation -------------------------------------

TEST(ServiceConfig, DefaultsValidate)
{
    EXPECT_TRUE(ServiceConfig{}.validate());
}

TEST(ServiceConfig, RejectsBadShardCounts)
{
    ServiceConfig config;
    config.shards = 0;
    EXPECT_FALSE(config.validate());
    config.shards = 3;
    EXPECT_FALSE(config.validate());
    config.shards = 8192;
    EXPECT_FALSE(config.validate());
    config.shards = 64;
    EXPECT_TRUE(config.validate());
}

TEST(ServiceConfig, ConstructorThrowsOnInvalidConfig)
{
    ServiceConfig config;
    config.shards = 3;
    EXPECT_THROW(PredictionService(config, testHybridFactory()),
                 std::invalid_argument);
}

// --- Shard routing -------------------------------------------------

TEST(ShardRouting, StableAndInRange)
{
    for (unsigned shards : {1u, 2u, 4u, 16u}) {
        for (std::uint64_t pc = 0x1000; pc < 0x1400; pc += 4) {
            const unsigned shard = shardOfPc(pc, shards);
            EXPECT_LT(shard, shards);
            // The sharding invariant: one static load, one shard.
            EXPECT_EQ(shard, shardOfPc(pc, shards));
        }
    }
}

TEST(ShardRouting, SpreadsClusteredPcs)
{
    // Load PCs are word-aligned and clustered; the mix64 finalizer
    // must still reach every shard.
    std::set<unsigned> seen;
    for (std::uint64_t pc = 0x08048000; pc < 0x08048400; pc += 4)
        seen.insert(shardOfPc(pc, 4));
    EXPECT_EQ(seen.size(), 4u);
}

TEST(ShardRouting, SingleShardAlwaysZero)
{
    for (std::uint64_t pc = 0; pc < 64; ++pc)
        EXPECT_EQ(shardOfPc(pc * 0x9e3779b9ull, 1), 0u);
}

// --- Single-client determinism & semantics cross-check -------------

TEST(ServeCrosscheck, OneShardMatchesPredictorSimExactly)
{
    const Trace trace = testTrace();
    ServiceConfig config;
    config.shards = 1;
    config.auditEveryBatches = 64;
    auto checked = crosscheckTrace(trace, testHybridFactory(), config);
    ASSERT_TRUE(checked) << checked.error().str();
    EXPECT_TRUE(checked->equal());

    // The one-shard reference is, by construction, a plain
    // PredictorSim run of the same trace: verify that directly too.
    HybridPredictor predictor{HybridConfig{}};
    const PredictionStats direct =
        runPredictorSim(trace, predictor, {});
    EXPECT_EQ(checked->service, direct);
    EXPECT_GT(direct.loads, 0u);
}

TEST(ServeCrosscheck, FourShardsMatchShardedReference)
{
    const Trace trace = testTrace();
    ServiceConfig config;
    config.shards = 4;
    config.auditEveryBatches = 64;
    auto checked = crosscheckTrace(trace, testHybridFactory(), config);
    ASSERT_TRUE(checked) << checked.error().str();
    EXPECT_TRUE(checked->equal());
    // Sharding partitions the loads: totals must still cover them all.
    PredictionStats single;
    {
        HybridPredictor predictor{HybridConfig{}};
        single = runPredictorSim(trace, predictor, {});
    }
    EXPECT_EQ(checked->service.loads, single.loads);
}

TEST(ServeCrosscheck, WorksForStridePredictorToo)
{
    const Trace trace = testTrace("MM");
    ServiceConfig config;
    config.shards = 2;
    config.auditEveryBatches = 64;
    auto checked = crosscheckTrace(
        trace,
        [] {
            return std::make_unique<StridePredictor>(
                StridePredictorConfig{});
        },
        config);
    ASSERT_TRUE(checked) << checked.error().str();
    EXPECT_TRUE(checked->equal());
}

TEST(ServeCrosscheck, RangedReplaysEqualOneWholeReplay)
{
    const Trace trace = testTrace();
    ServiceConfig config;
    config.shards = 4;
    config.auditEveryBatches = 64;

    PredictionService whole(config, testHybridFactory());
    ClientSession wholeSession = whole.connect();
    auto expected = replayTrace(wholeSession, trace);
    ASSERT_TRUE(expected) << expected.error().str();
    whole.stop();

    // One session, consecutive ranges; the last one runs past the end.
    PredictionService chunked(config, testHybridFactory());
    ClientSession session = chunked.connect();
    ReplayResult summed;
    constexpr std::size_t chunk = 4093;
    for (std::size_t first = 0; first < trace.size(); first += chunk) {
        auto part = replayTrace(session, trace, first, first + chunk);
        ASSERT_TRUE(part) << part.error().str();
        summed.add(*part);
    }
    auto empty = replayTrace(session, trace, trace.size(), SIZE_MAX);
    ASSERT_TRUE(empty) << empty.error().str();
    EXPECT_EQ(*empty, ReplayResult{});
    chunked.stop();

    EXPECT_GT(expected->loads, 0u);
    EXPECT_EQ(summed, *expected);
    EXPECT_EQ(chunked.aggregateStats(), whole.aggregateStats());
}

TEST(ServeDeterministic, StatsTalliedOnTrainOnly)
{
    ServiceConfig config;
    config.shards = 1;
    PredictionService service(config, testHybridFactory());
    ClientSession session = service.connect();

    auto pred = session.predict(0x1000, 8);
    ASSERT_TRUE(pred);
    EXPECT_EQ(service.aggregateStats().loads, 0u);
    ASSERT_TRUE(session.train(0x1000, 8, 0xdead0, *pred));
    EXPECT_EQ(service.aggregateStats().loads, 1u);
}

TEST(ServeDeterministic, AuditRunsPerBatch)
{
    ServiceConfig config;
    config.shards = 1;
    config.auditEveryBatches = 1;
    PredictionService service(config, testHybridFactory());
    ClientSession session = service.connect();

    for (std::uint64_t i = 0; i < 8; ++i) {
        auto pred = session.predict(0x2000 + i * 4, 0);
        ASSERT_TRUE(pred);
        ASSERT_TRUE(session.train(0x2000 + i * 4, 0, 0x8000 + i, *pred));
    }
    const auto snaps = service.snapshot();
    ASSERT_EQ(snaps.size(), 1u);
    // Every request is one batch, and the auditor runs after every
    // batch.
    EXPECT_EQ(snaps[0].batches, 16u);
    EXPECT_EQ(snaps[0].audits, 16u);
    EXPECT_EQ(snaps[0].predicts, 8u);
    EXPECT_EQ(snaps[0].trains, 8u);
    EXPECT_FALSE(snaps[0].auditFailed);
    EXPECT_TRUE(service.health());
}

/** A hybrid with a 2-way LT, where two ways can share a tag. */
PredictorFactory
twoWayLtFactory()
{
    return [] {
        HybridConfig config;
        config.cap.ltAssoc = 2;
        return std::make_unique<HybridPredictor>(config);
    };
}

/** Give both ways of LT set 5 one tag, through the table API. */
void
plantDuplicateLtTag(PredictionService &service)
{
    service.withShardPredictor(0, [](AddressPredictor &pred) {
        LinkTable &lt =
            dynamic_cast<HybridPredictor &>(pred).capComponent().linkTable();
        LTEntry entry;
        entry.valid = true;
        entry.tag = 0x5;
        lt.setImageAt(10, entry);
        lt.setImageAt(11, entry);
    });
}

TEST(ServeDeterministic, PerBatchAuditFindsCorruptionInUntouchedSet)
{
    ServiceConfig config;
    config.shards = 1;
    config.auditEveryBatches = 1;
    PredictionService service(config, twoWayLtFactory());
    ClientSession session = service.connect();
    auto warm = session.predict(0x2000, 0);
    ASSERT_TRUE(warm);
    ASSERT_TRUE(session.train(0x2000, 0, 0x8000, *warm));
    ASSERT_TRUE(service.health());

    // A predict never writes the link table, so only the planting
    // itself marks LT set 5 for the next batch's dirty-set audit.
    plantDuplicateLtTag(service);
    EXPECT_TRUE(service.health()); // no batch has run since
    ASSERT_TRUE(session.predict(0x3000, 0));
    const auto health = service.health();
    ASSERT_FALSE(health);
    EXPECT_EQ(health.error().code(), ErrorCode::CorruptedState);
    const std::string text = health.error().str();
    EXPECT_NE(text.find("per-batch audit"), std::string::npos) << text;
    EXPECT_NE(text.find("LT entry 11"), std::string::npos) << text;
    EXPECT_EQ(service.snapshot()[0].audits, 3u);
}

TEST(ServeDeterministic, CaptureRefusesStateTheFullAuditRejects)
{
    ServiceConfig config;
    config.shards = 1;
    config.auditEveryBatches = 0; // nothing audits between batches
    PredictionService service(config, twoWayLtFactory());
    ClientSession session = service.connect();
    ASSERT_TRUE(service.captureShardState(0)); // clean state captures

    plantDuplicateLtTag(service);
    auto pred = session.predict(0x2000, 0);
    ASSERT_TRUE(pred);
    ASSERT_TRUE(session.train(0x2000, 0, 0x8000, *pred));
    EXPECT_TRUE(service.shardHealth(0));

    const auto captured = service.captureShardState(0);
    ASSERT_FALSE(captured);
    EXPECT_EQ(captured.error().code(), ErrorCode::CorruptedState);
    const auto health = service.shardHealth(0);
    ASSERT_FALSE(health);
    const std::string text = health.error().str();
    EXPECT_NE(text.find("pre-capture audit"), std::string::npos) << text;
    const auto snap = service.snapshot();
    EXPECT_EQ(snap[0].captures, 1u);
    EXPECT_EQ(snap[0].audits, 0u); // audits counts per-batch runs only
}

TEST(ServeSession, HistoryTracksBranchesAndCalls)
{
    ServiceConfig config;
    config.shards = 1;
    PredictionService service(config, testHybridFactory());
    ClientSession session = service.connect();

    session.observeBranch(true);
    session.observeBranch(false);
    session.observeBranch(true);
    EXPECT_EQ(session.ghr(), 0b101u);
    session.observeCall(0x1234);
    EXPECT_EQ(session.pathHist(), 0x1234u >> 2);
    session.observeCall(0x5678);
    EXPECT_EQ(session.pathHist(),
              ((0x1234ull >> 2) << 4) ^ (0x5678ull >> 2));
}

// --- Threaded operation --------------------------------------------

TEST(ServeThreaded, ConcurrentClientsAccountForEveryRequest)
{
    const Trace trace = testTrace();
    constexpr unsigned clients = 4;

    ServiceConfig config;
    config.shards = 4;
    PredictionService service(config, testHybridFactory());

    std::vector<Expected<ReplayResult>> results;
    results.reserve(clients);
    for (unsigned c = 0; c < clients; ++c)
        results.emplace_back(ReplayResult{});
    {
        std::vector<std::thread> threads;
        for (unsigned c = 0; c < clients; ++c) {
            threads.emplace_back([&service, &trace, &results, c] {
                ClientSession session = service.connect();
                results[c] = replayTrace(session, trace);
            });
        }
        for (auto &thread : threads)
            thread.join();
    }
    service.stop();

    std::uint64_t submitted_loads = 0;
    for (const auto &result : results) {
        ASSERT_TRUE(result) << result.error().str();
        submitted_loads += result->loads;
    }

    const PredictionStats total = service.aggregateStats();
    EXPECT_EQ(total.loads, submitted_loads);

    std::uint64_t predicts = 0;
    std::uint64_t trains = 0;
    std::uint64_t batches = 0;
    std::uint64_t audits = 0;
    for (const ShardSnapshot &snap : service.snapshot()) {
        predicts += snap.predicts;
        trains += snap.trains;
        batches += snap.batches;
        audits += snap.audits;
        EXPECT_EQ(snap.queueDepth, 0u); // every caller has returned
        EXPECT_FALSE(snap.auditFailed);
    }
    EXPECT_EQ(predicts, submitted_loads);
    EXPECT_EQ(trains, submitted_loads);
    EXPECT_GT(batches, 0u);
    EXPECT_GT(audits, 0u);
    EXPECT_TRUE(service.health());
}

TEST(ServeThreaded, RequestsAfterStopFailStructured)
{
    ServiceConfig config;
    config.shards = 2;
    PredictionService service(config, testHybridFactory());
    ClientSession session = service.connect();
    service.stop();
    EXPECT_TRUE(service.stopped());

    auto pred = session.predict(0x1000, 0);
    ASSERT_FALSE(pred);
    EXPECT_EQ(pred.error().code(), ErrorCode::Shutdown);

    Prediction dummy;
    auto trained = session.train(0x1000, 0, 0x2000, dummy);
    ASSERT_FALSE(trained);
    EXPECT_EQ(trained.error().code(), ErrorCode::Shutdown);
}

/// Predictor stub whose predict() blocks until released: lets a test
/// wedge a shard, holding its lock, and stack callers behind it.
class BlockingPredictor : public AddressPredictor
{
  public:
    Prediction
    predict(const LoadInfo &) override
    {
        std::unique_lock<std::mutex> lock(mutex_);
        entered_ = true;
        ready_.notify_all();
        ready_.wait(lock, [this] { return released_; });
        return Prediction{};
    }

    void
    update(const LoadInfo &, std::uint64_t, const Prediction &) override
    {
    }

    std::string name() const override { return "blocking-stub"; }

    void
    release()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            released_ = true;
        }
        ready_.notify_all();
    }

    /** Block until a caller is wedged inside predict(). */
    void
    awaitEntered()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        ready_.wait(lock, [this] { return entered_; });
    }

  private:
    std::mutex mutex_;
    std::condition_variable ready_;
    bool entered_ = false;
    bool released_ = false;
};

/** The service owns its predictors; hand it a forwarding shim so the
 *  test keeps a handle on @p blocking for release(). */
PredictorFactory
blockingFactory(std::shared_ptr<BlockingPredictor> blocking)
{
    return [blocking]() -> std::unique_ptr<AddressPredictor> {
        struct Shim : AddressPredictor
        {
            explicit Shim(std::shared_ptr<BlockingPredictor> inner)
                : inner(std::move(inner))
            {
            }
            Prediction
            predict(const LoadInfo &info) override
            {
                return inner->predict(info);
            }
            void
            update(const LoadInfo &info, std::uint64_t addr,
                   const Prediction &pred) override
            {
                inner->update(info, addr, pred);
            }
            std::string name() const override { return inner->name(); }
            std::shared_ptr<BlockingPredictor> inner;
        };
        return std::make_unique<Shim>(blocking);
    };
}

TEST(ServeThreaded, TrainReturnsOnlyOnceApplied)
{
    auto blocking = std::make_shared<BlockingPredictor>();
    ServiceConfig config;
    config.shards = 1;
    config.auditEveryBatches = 0;
    PredictionService service(config, blockingFactory(blocking));

    // Wedge the shard: this predict holds the shard lock inside the
    // stub until release().
    std::thread wedged([&service] {
        LoadInfo info;
        info.pc = 0x1000;
        EXPECT_TRUE(service.predict(info));
    });
    blocking->awaitEntered();

    // The train runs on its caller's thread, so it cannot return
    // before the shard is free to apply it.
    std::atomic<bool> returned{false};
    std::thread trainer([&service, &returned] {
        LoadInfo info;
        info.pc = 0x1000;
        EXPECT_TRUE(service.train(info, 0x2000, Prediction{}));
        returned.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(returned.load());

    blocking->release();
    trainer.join();
    wedged.join();
    EXPECT_TRUE(returned.load());
    EXPECT_EQ(service.snapshot()[0].trains, 1u);
}

TEST(ServeThreaded, StopWaitsOutTheRunningRequestAndRefusesWaitingOnes)
{
    auto blocking = std::make_shared<BlockingPredictor>();
    ServiceConfig config;
    config.shards = 1;
    config.auditEveryBatches = 0;
    PredictionService service(config, blockingFactory(blocking));

    std::thread wedged([&service] {
        LoadInfo info;
        info.pc = 0x1000;
        EXPECT_TRUE(service.predict(info));
    });
    blocking->awaitEntered();

    // A train waiting for the wedged shard's lock.
    Expected<void> trained = ok();
    std::thread trainer([&service, &trained] {
        LoadInfo info;
        info.pc = 0x1000;
        trained = service.train(info, 0x2000, Prediction{});
    });
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (service.queueDepth(0) < 2 &&
           std::chrono::steady_clock::now() < until)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(service.queueDepth(0), 2u);

    // stop() refuses at once but returns only after the running
    // request has finished.
    std::atomic<bool> stopReturned{false};
    std::thread stopper([&service, &stopReturned] {
        service.stop();
        stopReturned.store(true);
    });
    while (!service.stopped())
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(stopReturned.load());

    blocking->release();
    stopper.join();
    trainer.join();
    wedged.join();
    EXPECT_TRUE(stopReturned.load());
    ASSERT_FALSE(trained);
    EXPECT_EQ(trained.error().code(), ErrorCode::Shutdown);
    EXPECT_EQ(service.snapshot()[0].trains, 0u);
    EXPECT_EQ(service.queueDepth(0), 0u);
}

TEST(ServeThreaded, ClientsOnOwnShardsMatchTheShardedReference)
{
    const Trace trace = testTrace();
    constexpr unsigned shards = 4;

    ServiceConfig config;
    config.shards = shards;
    config.auditEveryBatches = 64;
    PredictionService service(config, testHybridFactory());

    // Client c replays every non-load record (the full global history)
    // and only the loads that route to shard c: concurrent clients
    // that never share a shard, each feeding its shard exactly the
    // stream the reference sim of that shard sees.
    std::vector<Trace> streams(shards);
    for (unsigned c = 0; c < shards; ++c) {
        streams[c].reserve(trace.size());
        for (const auto &rec : trace.records()) {
            if (!rec.isLoad() || shardOfPc(rec.pc, shards) == c)
                streams[c].append(rec);
        }
    }
    std::vector<Expected<ReplayResult>> results;
    results.reserve(shards);
    for (unsigned c = 0; c < shards; ++c)
        results.emplace_back(ReplayResult{});
    {
        std::vector<std::thread> threads;
        for (unsigned c = 0; c < shards; ++c) {
            threads.emplace_back([&service, &streams, &results, c] {
                ClientSession session = service.connect();
                results[c] = replayTrace(session, streams[c]);
            });
        }
        for (auto &thread : threads)
            thread.join();
    }
    service.stop();

    for (const auto &result : results) {
        ASSERT_TRUE(result) << result.error().str();
        EXPECT_GT(result->loads, 0u);
    }
    // Stats are a pure function of each shard's train stream, however
    // the clients interleave.
    EXPECT_EQ(service.aggregateStats(),
              shardedReferenceStats(trace, testHybridFactory(), shards));
    EXPECT_TRUE(service.health());
}

} // namespace
} // namespace clap
