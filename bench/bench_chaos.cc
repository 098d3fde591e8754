/**
 * @file
 * Chaos harness for the shard lifecycle layer (serve/supervisor.hh +
 * serve/chaos.hh): drives a single-client PredictionService through
 * repeated fault/kill/restore cycles and checks the recovery
 * guarantees the design document states.
 *
 * Two phases per client trace:
 *
 *  - "equality": bit-flip faults only. After every injected flip the
 *    shard is quarantined and recovered immediately — a strict
 *    restore of its last snapshot plus a replay of the since-capture
 *    request journal — before any further request is served. The
 *    recovered run must therefore produce aggregate PredictionStats
 *    exactly equal to the sharded PredictorSim reference
 *    (shardedReferenceStats), counter for counter, with zero shed
 *    requests: the snapshot/journal pair loses nothing.
 *
 *  - "ladder": every fault class, including worker kills and
 *    snapshot-file truncation/corruption (each damaged snapshot is
 *    followed by a forced shard failure so recovery must actually
 *    read the damaged file). This exercises the salvage and
 *    fresh-restart rungs of the recovery ladder; requests shed while
 *    a shard is quarantined void the strict-equality guarantee (the
 *    documented replay-window deviation), so the phase asserts
 *    recovery completeness instead: every load record is attempted,
 *    zero shards end unrecovered or quarantined, and the service is
 *    healthy at the end.
 *
 * Everything is seeded (--chaos-seed) and one client drives the
 * service, so BENCH_chaos.json is byte-identical across runs with the
 * same seed and environment. Shard snapshots go to a per-process
 * directory under /tmp, removed when the run ends, so runs sharing a
 * working directory never share a snapshot file.
 * Flags, on top of the shared bench/sweep flags:
 *
 *   --chaos-seed=N  injection-sequence seed (default 0xc4a05)
 *
 * Environment knobs:
 *   CLAP_SERVE_SHARDS   shard count (default 4, at most 4096; rounded
 *                       down to a power of two)
 *   CLAP_TRACE_INSTS    per-trace instruction budget (suites.hh)
 * A malformed or out-of-range CLAP_SERVE_SHARDS exits 2, naming it.
 */

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <system_error>
#include <vector>

#include <unistd.h>

#include "bench/bench_util.hh"
#include "serve/chaos.hh"
#include "serve/crosscheck.hh"
#include "serve/service.hh"
#include "serve/supervisor.hh"
#include "workloads/composer.hh"

namespace
{

using namespace clap;
using namespace clap::bench;

std::uint64_t chaosSeed = 0xc4a05;

/// Trace records replayed between supervisor/injection ticks. Also
/// bounds the journal window: with snapshots every other tick a shard
/// journals at most ~2 chunks of requests between captures.
constexpr std::size_t chunkRecords = 16384;

/// Snapshot every snapEvery-th tick; the ticks in between restore
/// from the previous epoch and replay a non-empty journal.
constexpr unsigned snapEvery = 2;

/// One representative trace per behavioural family (as bench_serve).
std::vector<TraceSpec>
chaosSpecs()
{
    std::vector<TraceSpec> specs;
    for (const char *suite : {"INT", "MM", "TPC", "NT"})
        specs.push_back(buildSuite(suite).front());
    return specs;
}

/**
 * This process's snapshot directory, removed with everything in it
 * when the run ends: concurrent runs from one working directory never
 * share a snapshot file, and a failed run leaves none behind.
 */
class SnapshotDir
{
  public:
    SnapshotDir() : path_("/tmp/clap_chaos_" + std::to_string(getpid()))
    {
        // A failure here surfaces as the first snapshot's IoError.
        std::error_code ignored;
        std::filesystem::create_directories(path_, ignored);
    }
    ~SnapshotDir()
    {
        std::error_code ignored;
        std::filesystem::remove_all(path_, ignored);
    }
    SnapshotDir(const SnapshotDir &) = delete;
    SnapshotDir &operator=(const SnapshotDir &) = delete;

    std::string str() const { return path_.string(); }

  private:
    std::filesystem::path path_;
};

/** Everything one (phase, trace) cell produced. */
struct ChaosCell
{
    std::string phase;
    std::string trace;
    unsigned shards = 0;
    unsigned cycles = 0; ///< fault/recover ticks completed
    ReplayResult replay; ///< summed over every chunk
    ChaosCounts faults;
    SupervisorStats sup;
    PredictionStats stats;     ///< final service aggregate
    PredictionStats reference; ///< clean sharded reference
    bool equalityChecked = false;
    bool statsEqual = false;
    unsigned quarantinedAtEnd = 0;
    bool healthyAtEnd = false;
};

/**
 * Run one chaos cell: chunked replay of @p trace on @p shards shards
 * with a fault injected and recovered at every chunk boundary.
 * @p ladder enables the kill / snapshot-damage fault classes (and
 * drops the equality assertion — see file comment).
 */
Expected<ChaosCell>
runChaosCell(const std::string &phase, const TraceSpec &spec,
             std::shared_ptr<const Trace> trace, unsigned shards,
             bool ladder, std::uint64_t seed,
             const std::string &snapshotDir)
{
    ChaosCell cell;
    cell.phase = phase;
    cell.trace = spec.name;
    cell.shards = shards;

    ServiceConfig config;
    config.shards = shards;
    config.auditEveryBatches = 64;
    config.journalCapacity = 32768;
    PredictionService service(config, hybridFactory());

    SupervisorConfig supConfig;
    supConfig.snapshotDir = snapshotDir;
    supConfig.filePrefix = "chaos_" + phase + "_" + spec.name;
    ShardSupervisor supervisor(service, supConfig);

    ChaosConfig chaosConfig;
    chaosConfig.seed = seed;
    chaosConfig.flipLb = true;
    chaosConfig.flipLt = true;
    chaosConfig.killWorkers = ladder;
    chaosConfig.damageSnapshots = ladder;
    ChaosEngine engine(service, supervisor, chaosConfig);

    // Epoch 0: recovery must never fall back to a fresh restart just
    // because no snapshot exists yet.
    if (auto snapped = supervisor.snapshotAll(); !snapped) {
        return std::move(snapped.error())
            .withContext("initial snapshot of '" + spec.name + "'");
    }

    ClientSession session = service.connect();
    const std::size_t total = trace->size();
    for (std::size_t begin = 0; begin < total;
         begin += chunkRecords) {
        const std::size_t end = std::min(begin + chunkRecords, total);
        auto replayed = replayTrace(session, *trace, begin, end);
        if (!replayed) {
            return std::move(replayed.error())
                .withContext("chaos replay of '" + spec.name + "'");
        }
        cell.replay.add(*replayed);

        if (cell.cycles % snapEvery == 0) {
            // Periodic epoch advance. Best-effort by design: a shard
            // quarantined by an unfired worker kill refuses its
            // snapshot and keeps the previous epoch.
            (void)supervisor.snapshotAll();
        }

        auto injected = engine.injectFault();
        if (!injected) {
            return std::move(injected.error())
                .withContext("injection cycle " +
                             std::to_string(cell.cycles));
        }
        // A damaged snapshot on disk is latent until something
        // restores from it; force that restore so the cycle actually
        // exercises the salvage / fresh-restart rungs.
        if (injected->fault == ChaosFault::SnapshotTruncate ||
            injected->fault == ChaosFault::SnapshotCorrupt) {
            service.failShard(
                injected->shard,
                makeError(ErrorCode::CorruptedState,
                          "chaos: forced recovery from damaged "
                          "snapshot"));
        }
        supervisor.checkAndRecover();
        ++cell.cycles;
    }
    // A worker kill armed on the final cycle fires (and is recovered)
    // here at the latest.
    supervisor.checkAndRecover();
    service.stop();

    cell.faults = engine.counts();
    cell.sup = supervisor.stats();
    cell.stats = service.aggregateStats();
    for (unsigned s = 0; s < shards; ++s) {
        if (service.shardQuarantined(s))
            ++cell.quarantinedAtEnd;
    }
    cell.healthyAtEnd = static_cast<bool>(service.health());

    if (!ladder) {
        cell.reference =
            shardedReferenceStats(*trace, hybridFactory(), shards);
        cell.equalityChecked = true;
        cell.statsEqual = cell.stats == cell.reference;
    }
    return cell;
}

/** Assert one cell's phase guarantees; failures land in BenchState
 *  (printed, in the JSON, and the process exits 3). */
void
checkCell(const ChaosCell &cell)
{
    auto fail = [&cell](const std::string &what) {
        BenchState::instance().failures.push_back(
            {"chaos/" + cell.phase + "/" + cell.trace, what});
    };

    if (cell.sup.unrecovered != 0) {
        fail(std::to_string(cell.sup.unrecovered) +
             " recovery attempts failed");
    }
    if (cell.quarantinedAtEnd != 0) {
        fail(std::to_string(cell.quarantinedAtEnd) +
             " shards still quarantined after the final recovery "
             "pass");
    }
    if (!cell.healthyAtEnd)
        fail("service unhealthy after the final recovery pass");

    if (cell.equalityChecked) {
        if (!cell.statsEqual) {
            fail("stats diverge from the clean reference (service "
                 "spec=" +
                 std::to_string(cell.stats.spec) + " correct=" +
                 std::to_string(cell.stats.specCorrect) +
                 ", reference spec=" +
                 std::to_string(cell.reference.spec) + " correct=" +
                 std::to_string(cell.reference.specCorrect) + ")");
        }
        if (cell.replay.unavailable != 0) {
            fail(std::to_string(cell.replay.unavailable) +
                 " requests shed in the equality phase (recovery "
                 "must complete before the next request)");
        }
        if (cell.sup.salvagedRestores != 0 ||
            cell.sup.freshRestarts != 0) {
            fail("equality phase took a non-strict recovery rung (" +
                 std::to_string(cell.sup.salvagedRestores) +
                 " salvaged, " +
                 std::to_string(cell.sup.freshRestarts) + " fresh)");
        }
    } else {
        // Ladder phase: every load must at least be attempted.
        if (cell.replay.predicts + cell.replay.unavailable <
            cell.replay.loads) {
            fail("replay lost loads (" +
                 std::to_string(cell.replay.loads) + " seen, " +
                 std::to_string(cell.replay.predicts) +
                 " predicted, " +
                 std::to_string(cell.replay.unavailable) + " shed)");
        }
    }
}

std::vector<ChaosCell>
results()
{
    std::vector<ChaosCell> cells;
    const unsigned shards = envShardCount("CLAP_SERVE_SHARDS");
    const std::vector<TraceSpec> specs = chaosSpecs();
    const SnapshotDir snapshots;
    std::uint64_t cellSalt = 0;
    for (const bool ladder : {false, true}) {
        const std::string phase = ladder ? "ladder" : "equality";
        for (const auto &spec : specs) {
            const std::uint64_t seed =
                chaosSeed ^ (0x9e3779b97f4a7c15ull * ++cellSalt);
            auto trace =
                globalTraceStore().get(spec, defaultTraceLength());
            auto cell = runChaosCell(phase, spec, trace, shards,
                                     ladder, seed, snapshots.str());
            if (!cell) {
                BenchState::instance().failures.push_back(
                    {"chaos/" + phase + "/" + spec.name,
                     cell.error().str()});
                continue;
            }
            checkCell(*cell);
            cells.push_back(std::move(*cell));
        }
    }
    return cells;
}

void
printResults()
{
    Table table;
    table.row({"phase", "trace", "cycles", "loads", "shed", "flips",
               "kills", "snap_dmg", "strict", "salvage", "fresh",
               "unrec", "stats_equal"});
    for (const ChaosCell &cell : results()) {
        table.newRow();
        table.cell(cell.phase);
        table.cell(cell.trace);
        table.cell(static_cast<std::uint64_t>(cell.cycles));
        table.cell(cell.replay.loads);
        table.cell(cell.replay.unavailable);
        table.cell(cell.faults.lbFlips + cell.faults.ltFlips);
        table.cell(cell.faults.workerKills);
        table.cell(cell.faults.snapshotTruncations +
                   cell.faults.snapshotCorruptions);
        table.cell(cell.sup.strictRestores);
        table.cell(cell.sup.salvagedRestores);
        table.cell(cell.sup.freshRestarts);
        table.cell(cell.sup.unrecovered);
        table.cell(cell.equalityChecked
                       ? (cell.statsEqual ? "yes" : "NO")
                       : "n/a");
    }
    printTable("Chaos cycles: fault injection + recovery per trace "
               "(seed 0x" +
                   [] {
                       char buf[32];
                       std::snprintf(buf, sizeof buf, "%llx",
                                     static_cast<unsigned long long>(
                                         chaosSeed));
                       return std::string(buf);
                   }() +
                   ")",
               table);

    std::printf("\nexpected: zero shed/unrecovered and stats_equal = "
                "yes in the equality phase (snapshot + journal replay "
                "lose nothing); the ladder phase exercises salvage / "
                "fresh-restart rungs and only guarantees recovery, "
                "not equality\n");
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace clap::bench;
    return benchMain("chaos", argc, argv, printResults,
                     {seedFlag("--chaos-seed", chaosSeed)});
}
