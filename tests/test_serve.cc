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
#include "serve/queue.hh"
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

TEST(ServiceConfig, RejectsBadQueueGeometry)
{
    ServiceConfig config;
    config.queueCapacity = 0;
    EXPECT_FALSE(config.validate());

    config = ServiceConfig{};
    config.maxBatch = 0;
    EXPECT_FALSE(config.validate());

    config = ServiceConfig{};
    config.queueCapacity = 8;
    config.maxBatch = 9;
    EXPECT_FALSE(config.validate());
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

// --- Bounded queue -------------------------------------------------

TEST(BoundedQueue, NonBlockingPushReportsFull)
{
    BoundedQueue<int> queue(2);
    EXPECT_EQ(queue.push(1, false), QueuePush::Ok);
    EXPECT_EQ(queue.push(2, false), QueuePush::Ok);
    EXPECT_EQ(queue.push(3, false), QueuePush::Full);
    EXPECT_EQ(queue.depth(), 2u);
    EXPECT_EQ(queue.maxDepth(), 2u);
}

TEST(BoundedQueue, PopBatchRespectsMaxAndOrder)
{
    BoundedQueue<int> queue(8);
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(queue.push(i, false), QueuePush::Ok);
    std::vector<int> out;
    EXPECT_EQ(queue.popBatch(out, 3, false), 3u);
    EXPECT_EQ(out, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(queue.popBatch(out, 8, false), 2u);
    EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3, 4}));
    EXPECT_EQ(queue.popBatch(out, 8, false), 0u);
}

TEST(BoundedQueue, CloseRejectsPushesButDrains)
{
    BoundedQueue<int> queue(4);
    EXPECT_EQ(queue.push(7, false), QueuePush::Ok);
    queue.close();
    EXPECT_EQ(queue.push(8, false), QueuePush::Closed);
    EXPECT_EQ(queue.push(8, true), QueuePush::Closed);
    std::vector<int> out;
    EXPECT_EQ(queue.popBatch(out, 4, true), 1u);
    EXPECT_EQ(out.front(), 7);
    // Closed and drained: a waiting pop returns 0 instead of hanging.
    out.clear();
    EXPECT_EQ(queue.popBatch(out, 4, true), 0u);
}

TEST(BoundedQueue, BlockingPushWaitsForSpace)
{
    BoundedQueue<int> queue(1);
    EXPECT_EQ(queue.push(1, false), QueuePush::Ok);

    std::atomic<bool> pushed{false};
    std::thread producer([&] {
        EXPECT_EQ(queue.push(2, true), QueuePush::Ok);
        pushed.store(true);
    });
    // The producer must be blocked until the consumer makes space.
    std::vector<int> out;
    EXPECT_EQ(queue.popBatch(out, 1, true), 1u);
    producer.join();
    EXPECT_TRUE(pushed.load());
    out.clear();
    EXPECT_EQ(queue.popBatch(out, 1, true), 1u);
    EXPECT_EQ(out.front(), 2);
}

// --- Deterministic mode & semantics cross-check --------------------

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

TEST(ServeDeterministic, StatsTalliedOnTrainOnly)
{
    ServiceConfig config;
    config.shards = 1;
    config.deterministic = true;
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
    config.deterministic = true;
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
    // Inline drains process one request per batch, and the auditor
    // runs after every batch.
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
    config.deterministic = true;
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
    config.deterministic = true;
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
    config.deterministic = true;
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
    config.queueCapacity = 256;
    config.maxBatch = 32;
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
        EXPECT_EQ(result->overloaded, 0u); // Block policy never sheds
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
        EXPECT_EQ(snap.queueDepth, 0u); // stop() drains
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
/// wedge a shard worker and fill the queue behind it.
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

    /** Block until a worker is wedged inside predict(). */
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

TEST(ServeThreaded, RejectPolicyReturnsOverloadedWhenQueueFull)
{
    auto blocking = std::make_shared<BlockingPredictor>();

    ServiceConfig config;
    config.shards = 1;
    config.queueCapacity = 2;
    config.maxBatch = 1;
    config.overload = OverloadPolicy::Reject;
    config.auditEveryBatches = 0;
    PredictionService service(
        config, [blocking]() -> std::unique_ptr<AddressPredictor> {
            // The service owns its predictors; hand it a forwarding
            // shim so the test keeps a handle for release().
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
        });

    // Wedge the worker: it pops this predict and blocks inside the
    // stub, leaving the queue empty.
    std::thread wedged([&service] {
        LoadInfo info;
        info.pc = 0x1000;
        EXPECT_TRUE(service.predict(info));
    });
    blocking->awaitEntered();

    // Fill the (now idle) queue with fire-and-forget trains, then
    // overflow it: the Reject policy must fail fast and structured.
    LoadInfo info;
    info.pc = 0x1000;
    Prediction dummy;
    Expected<void> overflow = ok();
    bool saw_overload = false;
    for (int i = 0; i < 64 && !saw_overload; ++i) {
        overflow = service.train(info, 0x2000, dummy);
        if (!overflow) {
            EXPECT_EQ(overflow.error().code(), ErrorCode::Overloaded);
            saw_overload = true;
        }
    }
    EXPECT_TRUE(saw_overload);

    // snapshot() needs the shard mutex, which the wedged worker holds
    // inside processBatch — release it before inspecting counters.
    blocking->release();
    wedged.join();
    service.stop();

    const auto snaps = service.snapshot();
    ASSERT_EQ(snaps.size(), 1u);
    EXPECT_GE(snaps[0].rejected, 1u);
}

// --- close()/shutdown vs blocked producers ------------------------

TEST(BoundedQueue, CloseWakesBlockedProducers)
{
    BoundedQueue<int> queue(1);
    ASSERT_EQ(queue.push(0, false), QueuePush::Ok);

    // Three producers block in push(block=true) on the full queue.
    std::atomic<int> woken{0};
    std::vector<std::thread> producers;
    for (int i = 0; i < 3; ++i) {
        producers.emplace_back([&queue, &woken, i] {
            EXPECT_EQ(queue.push(i + 1, true), QueuePush::Closed);
            woken.fetch_add(1);
        });
    }

    // Give the producers a moment to reach the wait; close() must
    // then wake every one of them with Closed — not leave them
    // sleeping on a condition that will never signal again.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    queue.close();
    for (auto &producer : producers)
        producer.join();
    EXPECT_EQ(woken.load(), 3);

    // The item enqueued before close still drains.
    std::vector<int> out;
    EXPECT_EQ(queue.popBatch(out, 4, false), 1u);
    EXPECT_EQ(out.front(), 0);
}

TEST(ServeThreaded, StopWakesProducersBlockedInPush)
{
    auto blocking = std::make_shared<BlockingPredictor>();

    ServiceConfig config;
    config.shards = 1;
    config.queueCapacity = 2;
    config.maxBatch = 1;
    config.overload = OverloadPolicy::Block;
    config.auditEveryBatches = 0;
    PredictionService service(
        config, [blocking]() -> std::unique_ptr<AddressPredictor> {
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
        });

    // Wedge the worker inside the stub's predict(), then fill the
    // idle queue to capacity with fire-and-forget trains.
    std::thread wedged([&service] {
        LoadInfo info;
        info.pc = 0x1000;
        EXPECT_TRUE(service.predict(info));
    });
    blocking->awaitEntered();

    LoadInfo info;
    info.pc = 0x1000;
    Prediction dummy;
    EXPECT_TRUE(service.train(info, 0x2000, dummy));
    EXPECT_TRUE(service.train(info, 0x2000, dummy));

    // These producers block inside push(block=true): the queue is
    // full and the only worker is wedged, so nothing can drain it.
    std::vector<std::thread> producers;
    std::vector<Expected<void>> results(3, ok());
    for (int i = 0; i < 3; ++i) {
        producers.emplace_back([&service, &results, i] {
            LoadInfo blocked_info;
            blocked_info.pc = 0x1000;
            Prediction blocked_dummy;
            results[static_cast<std::size_t>(i)] =
                service.train(blocked_info, 0x2000, blocked_dummy);
        });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

    // stop() closes the queues first and only then joins the workers,
    // so the blocked producers must wake with a structured Shutdown
    // error *before* the wedged worker is released — a hang here is
    // exactly the close()/shutdown race this test pins down.
    std::thread stopper([&service] { service.stop(); });
    for (auto &producer : producers)
        producer.join();
    for (const auto &result : results) {
        ASSERT_FALSE(result);
        EXPECT_EQ(result.error().code(), ErrorCode::Shutdown);
    }

    // Release the worker so stop() can drain and join.
    blocking->release();
    stopper.join();
    wedged.join();
    EXPECT_TRUE(service.stopped());
}

} // namespace
} // namespace clap
