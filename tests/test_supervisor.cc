/**
 * @file
 * Tests for the shard lifecycle layer: PredictionService
 * snapshot/restore/quarantine/journal (serve/service.hh), the
 * crash-recovery supervisor (serve/supervisor.hh), and the chaos
 * engine (serve/chaos.hh).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/hybrid_predictor.hh"
#include "serve/chaos.hh"
#include "serve/service.hh"
#include "serve/supervisor.hh"
#include "util/atomic_file.hh"
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

ServiceConfig
lifecycleConfig(unsigned shards = 2)
{
    ServiceConfig config;
    config.shards = shards;
    config.journalCapacity = 65536;
    return config;
}

SupervisorConfig
supervisorConfig(const std::string &prefix)
{
    SupervisorConfig config;
    config.snapshotDir = testing::TempDir();
    config.filePrefix = prefix;
    return config;
}

Trace
testTrace(const char *suite = "INT")
{
    return generateTrace(buildSuite(suite).front(), testTraceInsts);
}

void
removeSnapshots(const ShardSupervisor &supervisor,
                const PredictionService &service)
{
    for (unsigned s = 0; s < service.config().shards; ++s)
        std::remove(supervisor.shardSnapshotPath(s).c_str());
}

/** Replay records [begin, end) of @p trace, shedding quarantined
 *  shards' requests. @return requests shed. */
std::uint64_t
replayRange(ClientSession &session, const Trace &trace,
            std::size_t begin, std::size_t end)
{
    std::uint64_t shed = 0;
    const auto &records = trace.records();
    for (std::size_t i = begin; i < end && i < records.size(); ++i) {
        const auto &rec = records[i];
        if (rec.isLoad()) {
            auto pred = session.predict(rec.pc, rec.immOffset);
            if (!pred) {
                EXPECT_EQ(pred.error().code(),
                          ErrorCode::ShardUnavailable);
                ++shed;
                continue;
            }
            auto trained = session.train(rec.pc, rec.immOffset,
                                         rec.effAddr, *pred);
            if (!trained) {
                EXPECT_EQ(trained.error().code(),
                          ErrorCode::ShardUnavailable);
                ++shed;
            }
        } else if (rec.isBranch()) {
            session.observeBranch(rec.taken);
        } else if (rec.cls == InstClass::Call) {
            session.observeCall(rec.pc);
        }
    }
    return shed;
}

// --- Service lifecycle primitives ---------------------------------

TEST(ServiceLifecycle, QuarantineFailsFastWithShardUnavailable)
{
    PredictionService service(lifecycleConfig(), testHybridFactory());
    service.quarantineShard(0);
    EXPECT_TRUE(service.shardQuarantined(0));
    EXPECT_FALSE(service.shardQuarantined(1));

    ClientSession session = service.connect();
    const Trace trace = testTrace();
    std::uint64_t hitQuarantined = 0;
    std::uint64_t served = 0;
    for (const auto &rec : trace.records()) {
        if (!rec.isLoad())
            continue;
        auto pred = session.predict(rec.pc, rec.immOffset);
        if (!pred) {
            ASSERT_EQ(pred.error().code(), ErrorCode::ShardUnavailable);
            EXPECT_TRUE(isRetryable(pred.error().code()));
            EXPECT_EQ(service.shardOf(rec.pc), 0u);
            ++hitQuarantined;
        } else {
            // Peers keep serving while one shard is out.
            EXPECT_EQ(service.shardOf(rec.pc), 1u);
            ++served;
        }
    }
    EXPECT_GT(hitQuarantined, 0u);
    EXPECT_GT(served, 0u);

    const auto snaps = service.snapshot();
    EXPECT_TRUE(snaps[0].quarantined);
    EXPECT_EQ(snaps[0].unavailable, hitQuarantined);
    EXPECT_EQ(snaps[0].quarantines, 1u);

    service.rejoinShard(0);
    EXPECT_FALSE(service.shardQuarantined(0));
    EXPECT_TRUE(session.predict(0x1000, 0));
}

TEST(ServiceLifecycle, CaptureRestoreRoundTripsServeCounters)
{
    PredictionService service(lifecycleConfig(), testHybridFactory());
    ClientSession session = service.connect();
    const Trace trace = testTrace();
    replayRange(session, trace, 0, trace.size());

    const auto before = service.snapshot();
    auto captured = service.captureShardState(0);
    ASSERT_TRUE(captured) << captured.error().str();

    // Wreck the shard, then restore.
    service.resetShard(0);
    EXPECT_EQ(service.snapshot()[0].stats.loads, 0u);

    auto restored = service.restoreShardState(0, *captured);
    ASSERT_TRUE(restored) << restored.error().str();
    EXPECT_FALSE(restored->salvaged);

    const auto after = service.snapshot();
    EXPECT_EQ(after[0].stats, before[0].stats);
    EXPECT_EQ(after[0].predicts, before[0].predicts);
    EXPECT_EQ(after[0].trains, before[0].trains);
}

TEST(ServiceLifecycle, RestoreWithJournalReplayIsExact)
{
    const Trace trace = testTrace();
    const std::size_t mid = trace.size() / 2;

    // Reference: uninterrupted run.
    PredictionService reference(lifecycleConfig(),
                                testHybridFactory());
    {
        ClientSession session = reference.connect();
        EXPECT_EQ(replayRange(session, trace, 0, trace.size()), 0u);
    }

    // Crashed run: capture at the midpoint, keep serving (the journal
    // records the second half), fail, restore + replay.
    PredictionService service(lifecycleConfig(), testHybridFactory());
    ClientSession session = service.connect();
    EXPECT_EQ(replayRange(session, trace, 0, mid), 0u);
    auto snapshot0 = service.captureShardState(0);
    auto snapshot1 = service.captureShardState(1);
    ASSERT_TRUE(snapshot0);
    ASSERT_TRUE(snapshot1);
    EXPECT_EQ(replayRange(session, trace, mid, trace.size()), 0u);

    const auto beforeFailure = service.snapshot();
    EXPECT_GT(beforeFailure[0].journalDepth, 0u);
    EXPECT_FALSE(beforeFailure[0].journalOverflowed);

    service.failShard(0, makeError(ErrorCode::CorruptedState,
                                   "injected for test"));
    service.failShard(1, makeError(ErrorCode::CorruptedState,
                                   "injected for test"));
    auto restored0 = service.restoreShardState(0, *snapshot0);
    auto restored1 = service.restoreShardState(1, *snapshot1);
    ASSERT_TRUE(restored0) << restored0.error().str();
    ASSERT_TRUE(restored1) << restored1.error().str();
    service.rejoinShard(0);
    service.rejoinShard(1);

    // Snapshot + journal replay reproduce the uninterrupted run
    // exactly, counter for counter.
    EXPECT_EQ(service.aggregateStats(), reference.aggregateStats());
    EXPECT_TRUE(service.health());
}

TEST(ServiceLifecycle, JournalOverflowIsMarkedAndVoidsReplay)
{
    ServiceConfig config = lifecycleConfig(1);
    config.journalCapacity = 8;
    PredictionService service(config, testHybridFactory());
    ClientSession session = service.connect();
    const Trace trace = testTrace();
    replayRange(session, trace, 0, 200);

    const auto snaps = service.snapshot();
    EXPECT_TRUE(snaps[0].journalOverflowed);
    EXPECT_EQ(snaps[0].journalDepth, 0u); // discarded, not truncated

    // A new capture opens a fresh epoch and clears the overflow.
    auto captured = service.captureShardState(0);
    ASSERT_TRUE(captured);
    EXPECT_FALSE(service.snapshot()[0].journalOverflowed);
}

TEST(ServiceLifecycle, WorkerFaultQuarantinesAndReportsTheShard)
{
    PredictionService service(lifecycleConfig(1),
                              testHybridFactory());
    ClientSession session = service.connect();
    auto ok1 = session.predict(0x1000, 0);
    ASSERT_TRUE(ok1);

    service.injectWorkerFault(0);
    // The kill fires inside the next batch; the in-flight predict
    // completes unspeculated rather than hanging the client.
    auto killed = session.predict(0x2000, 0);
    ASSERT_TRUE(killed);
    EXPECT_FALSE(killed->speculate);

    EXPECT_TRUE(service.shardQuarantined(0));
    auto health = service.shardHealth(0);
    ASSERT_FALSE(health);
    EXPECT_EQ(health.error().code(), ErrorCode::CorruptedState);
    const auto snaps = service.snapshot();
    EXPECT_TRUE(snaps[0].workerFailed);
}

// --- SupervisorConfig validation ----------------------------------

TEST(SupervisorConfig, DefaultsValidate)
{
    EXPECT_TRUE(SupervisorConfig{}.validate());
}

TEST(SupervisorConfig, RejectsBadPaths)
{
    SupervisorConfig config;
    config.snapshotDir = "";
    EXPECT_FALSE(config.validate());
    config = SupervisorConfig{};
    config.filePrefix = "a/b";
    EXPECT_FALSE(config.validate());
    PredictionService service(lifecycleConfig(), testHybridFactory());
    EXPECT_THROW(ShardSupervisor(service, config),
                 std::invalid_argument);
}

// --- Supervisor recovery protocol ---------------------------------

TEST(Supervisor, SnapshotAndRecoverRestoresExactState)
{
    PredictionService service(lifecycleConfig(), testHybridFactory());
    ShardSupervisor supervisor(service, supervisorConfig("sup_exact"));

    const Trace trace = testTrace();
    const std::size_t mid = trace.size() / 2;
    ClientSession session = service.connect();
    EXPECT_EQ(replayRange(session, trace, 0, mid), 0u);
    ASSERT_TRUE(supervisor.snapshotAll());
    EXPECT_EQ(replayRange(session, trace, mid, trace.size()), 0u);

    const PredictionStats before = service.aggregateStats();

    service.failShard(0, makeError(ErrorCode::CorruptedState,
                                   "injected for test"));
    EXPECT_EQ(supervisor.checkAndRecover(), 1u);
    EXPECT_FALSE(service.shardQuarantined(0));
    EXPECT_TRUE(service.health());
    EXPECT_EQ(service.aggregateStats(), before);

    const SupervisorStats stats = supervisor.stats();
    EXPECT_EQ(stats.recoveries, 1u);
    EXPECT_EQ(stats.strictRestores, 1u);
    EXPECT_EQ(stats.salvagedRestores, 0u);
    EXPECT_EQ(stats.freshRestarts, 0u);
    EXPECT_EQ(stats.unrecovered, 0u);
    removeSnapshots(supervisor, service);
}

TEST(Supervisor, RefusesToSnapshotUnhealthyOrQuarantinedShards)
{
    PredictionService service(lifecycleConfig(), testHybridFactory());
    ShardSupervisor supervisor(service,
                               supervisorConfig("sup_refuse"));
    ASSERT_TRUE(supervisor.snapshotAll());

    service.failShard(0, makeError(ErrorCode::CorruptedState,
                                   "injected for test"));
    auto refused = supervisor.snapshotShard(0);
    ASSERT_FALSE(refused);
    EXPECT_GE(supervisor.stats().snapshotFailures, 1u);

    // snapshotAll reports the failure but still snapshots the peers.
    const std::uint64_t before = supervisor.stats().snapshots;
    EXPECT_FALSE(supervisor.snapshotAll());
    EXPECT_EQ(supervisor.stats().snapshots, before + 1);
    removeSnapshots(supervisor, service);
}

TEST(Supervisor, SalvagesATruncatedSnapshot)
{
    PredictionService service(lifecycleConfig(1),
                              testHybridFactory());
    ShardSupervisor supervisor(service,
                               supervisorConfig("sup_salvage"));
    ClientSession session = service.connect();
    const Trace trace = testTrace();
    replayRange(session, trace, 0, trace.size());
    ASSERT_TRUE(supervisor.snapshotAll());

    // Truncate the snapshot mid-LoadBuffer, then force a recovery
    // that must read it.
    const std::string path = supervisor.shardSnapshotPath(0);
    auto bytes = readFileBytes(path);
    ASSERT_TRUE(bytes);
    ASSERT_TRUE(
        writeFileAtomic(path, bytes->substr(0, bytes->size() - 64)));

    service.failShard(0, makeError(ErrorCode::CorruptedState,
                                   "injected for test"));
    EXPECT_EQ(supervisor.checkAndRecover(), 1u);
    EXPECT_TRUE(service.health());
    const SupervisorStats stats = supervisor.stats();
    EXPECT_EQ(stats.salvagedRestores, 1u);
    EXPECT_EQ(stats.freshRestarts, 0u);
    EXPECT_EQ(stats.unrecovered, 0u);
    removeSnapshots(supervisor, service);
}

TEST(Supervisor, FreshRestartWhenTheSnapshotIsGone)
{
    PredictionService service(lifecycleConfig(1),
                              testHybridFactory());
    ShardSupervisor supervisor(service, supervisorConfig("sup_fresh"));
    ClientSession session = service.connect();
    const Trace trace = testTrace();
    replayRange(session, trace, 0, trace.size());
    // No snapshot was ever taken: the ladder must bottom out in a
    // factory-fresh restart.
    service.failShard(0, makeError(ErrorCode::CorruptedState,
                                   "injected for test"));
    EXPECT_EQ(supervisor.checkAndRecover(), 1u);
    EXPECT_TRUE(service.health());
    EXPECT_FALSE(service.shardQuarantined(0));
    EXPECT_EQ(service.aggregateStats().loads, 0u); // reset state

    const SupervisorStats stats = supervisor.stats();
    EXPECT_EQ(stats.freshRestarts, 1u);
    EXPECT_EQ(stats.unrecovered, 0u);
    removeSnapshots(supervisor, service);
}

TEST(Supervisor, UnrecoverableShardStaysQuarantined)
{
    PredictionService service(lifecycleConfig(1),
                              testHybridFactory());
    SupervisorConfig config = supervisorConfig("sup_unrec");
    config.freshRestartFallback = false;
    ShardSupervisor supervisor(service, config);

    service.failShard(0, makeError(ErrorCode::CorruptedState,
                                   "injected for test"));
    EXPECT_EQ(supervisor.checkAndRecover(), 0u);
    EXPECT_TRUE(service.shardQuarantined(0));
    EXPECT_EQ(supervisor.stats().unrecovered, 1u);

    ClientSession session = service.connect();
    auto pred = session.predict(0x1000, 0);
    ASSERT_FALSE(pred);
    EXPECT_EQ(pred.error().code(), ErrorCode::ShardUnavailable);
}

TEST(Supervisor, RecoversAnInjectedWorkerKill)
{
    PredictionService service(lifecycleConfig(1),
                              testHybridFactory());
    ShardSupervisor supervisor(service, supervisorConfig("sup_kill"));
    ClientSession session = service.connect();
    const Trace trace = testTrace();
    const std::size_t mid = trace.size() / 2;
    EXPECT_EQ(replayRange(session, trace, 0, mid), 0u);
    ASSERT_TRUE(supervisor.snapshotAll());

    service.injectWorkerFault(0);
    const std::uint64_t shed =
        replayRange(session, trace, mid, trace.size());
    EXPECT_GT(shed, 0u); // quarantined mid-replay

    EXPECT_EQ(supervisor.checkAndRecover(), 1u);
    EXPECT_TRUE(service.health());
    EXPECT_FALSE(service.shardQuarantined(0));
    EXPECT_EQ(supervisor.stats().recoveries, 1u);

    // Shard serves again after the recovery.
    auto pred = session.predict(0x1000, 0);
    EXPECT_TRUE(pred);
    removeSnapshots(supervisor, service);
}

TEST(Supervisor, FailedSnapshotWriteKeepsRecoveryExact)
{
    PredictionService service(lifecycleConfig(), testHybridFactory());
    ShardSupervisor supervisor(service,
                               supervisorConfig("sup_unwritten"));
    const Trace trace = testTrace();
    const std::size_t third = trace.size() / 3;
    ClientSession session = service.connect();
    EXPECT_EQ(replayRange(session, trace, 0, third), 0u);
    ASSERT_TRUE(supervisor.snapshotAll());
    EXPECT_EQ(replayRange(session, trace, third, 2 * third), 0u);

    // The capture opens a new journal epoch, then its file write
    // fails: the file still holds the 1/3 capture, which the journal
    // no longer rolls forward from.
    AtomicFileFaults::instance().failRenames = 1;
    EXPECT_FALSE(supervisor.snapshotShard(0));
    AtomicFileFaults::instance().reset();
    EXPECT_EQ(replayRange(session, trace, 2 * third, trace.size()), 0u);

    const PredictionStats before = service.aggregateStats();
    service.failShard(0, makeError(ErrorCode::CorruptedState,
                                   "injected for test"));
    EXPECT_EQ(supervisor.checkAndRecover(), 1u);
    EXPECT_TRUE(service.health());
    EXPECT_EQ(service.aggregateStats(), before);

    const SupervisorStats stats = supervisor.stats();
    EXPECT_EQ(stats.recoveries, 1u);
    EXPECT_EQ(stats.strictRestores, 1u);
    EXPECT_EQ(stats.snapshotFailures, 1u);
    removeSnapshots(supervisor, service);
}

// --- Chaos engine -------------------------------------------------

TEST(ChaosEngine, ConfigMustEnableAFaultClass)
{
    ChaosConfig config;
    config.flipLb = false;
    config.flipLt = false;
    config.killWorkers = false;
    config.damageSnapshots = false;
    EXPECT_FALSE(config.validate());
}

TEST(ChaosEngine, BitFlipQuarantinesTheShardForRecovery)
{
    PredictionService service(lifecycleConfig(1),
                              testHybridFactory());
    ShardSupervisor supervisor(service, supervisorConfig("chaos_flip"));
    ChaosConfig config;
    config.damageSnapshots = false;
    ChaosEngine engine(service, supervisor, config);

    ClientSession session = service.connect();
    const Trace trace = testTrace();
    replayRange(session, trace, 0, trace.size() / 4);
    ASSERT_TRUE(supervisor.snapshotAll());
    const PredictionStats before = service.aggregateStats();

    auto injected = engine.injectFault();
    ASSERT_TRUE(injected) << injected.error().str();
    EXPECT_TRUE(service.shardQuarantined(injected->shard));
    EXPECT_EQ(engine.counts().total(), 1u);

    EXPECT_EQ(supervisor.checkAndRecover(), 1u);
    EXPECT_EQ(service.aggregateStats(), before);
    removeSnapshots(supervisor, service);
}

TEST(ChaosEngine, SnapshotDamageForcesTheSalvageRung)
{
    PredictionService service(lifecycleConfig(1),
                              testHybridFactory());
    ShardSupervisor supervisor(service, supervisorConfig("chaos_dmg"));
    ChaosConfig config;
    ChaosEngine engine(service, supervisor, config);

    ClientSession session = service.connect();
    const Trace trace = testTrace();
    replayRange(session, trace, 0, trace.size() / 2);
    ASSERT_TRUE(supervisor.snapshotAll());

    auto damaged = engine.damageSnapshotFile(0, /*corrupt=*/false);
    ASSERT_TRUE(damaged) << damaged.error().str();
    EXPECT_EQ(engine.counts().snapshotTruncations, 1u);

    service.failShard(0, makeError(ErrorCode::CorruptedState,
                                   "forced recovery from damage"));
    EXPECT_EQ(supervisor.checkAndRecover(), 1u);
    EXPECT_TRUE(service.health());
    const SupervisorStats stats = supervisor.stats();
    EXPECT_EQ(stats.salvagedRestores + stats.freshRestarts, 1u);
    removeSnapshots(supervisor, service);
}

TEST(ChaosEngine, SameSeedSameInjectionSequence)
{
    auto sequence = [](std::uint64_t seed) {
        PredictionService service(lifecycleConfig(2),
                                  testHybridFactory());
        ShardSupervisor supervisor(service,
                                   supervisorConfig("chaos_seed"));
        ChaosConfig config;
        config.seed = seed;
        config.damageSnapshots = false;
        ChaosEngine engine(service, supervisor, config);
        std::string log;
        for (int i = 0; i < 8; ++i) {
            auto injected = engine.injectFault();
            if (injected) {
                log += chaosFaultName(injected->fault);
                log += "@" + std::to_string(injected->shard);
                log += " " + injected->detail + "; ";
            }
        }
        return log;
    };
    EXPECT_EQ(sequence(42), sequence(42));
    EXPECT_NE(sequence(42), sequence(43));
}

} // namespace
} // namespace clap
