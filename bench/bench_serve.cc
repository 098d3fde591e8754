/**
 * @file
 * Load generator for the sharded prediction service (src/serve/):
 * M concurrent client threads replay workload-composer traces against
 * a PredictionService and the harness reports aggregate throughput,
 * per-request predict latency percentiles (p50/p95/p99), and the
 * most callers seen on one shard at once, for the 1-shard baseline
 * versus the sharded configurations — the serving-layer scaling
 * experiment the paper's inline simulator cannot express.
 *
 * A second, deterministic phase runs the semantics cross-check
 * (serve/crosscheck.hh) as sweep jobs through the resilient runner:
 * for each (trace, shards) cell, a single-client service replay must
 * produce PredictionStats bit-for-bit equal to the sharded
 * PredictorSim reference. A mismatch fails the job (and the harness
 * exits non-zero), which is what the CI serve-smoke job asserts.
 *
 * Environment knobs (besides the shared bench/sweep flags):
 *   CLAP_SERVE_SHARDS   sharded configuration size (default 4, at
 *                       most 4096; rounded down to a power of two)
 *   CLAP_SERVE_CLIENTS  concurrent client threads (default 4, at
 *                       most 1024)
 *   CLAP_TRACE_INSTS    per-trace instruction budget (suites.hh)
 * A malformed or out-of-range shard or client count exits 2, naming
 * the variable.
 *
 * Chaos-under-load flags (default off; see serve/chaos.hh):
 *   --fault-rate=N   expected predictor-state bit flips injected per
 *                    second of load-phase wall clock (0 disables; at
 *                    most 1e6, as the injector sleeps whole
 *                    microseconds between flips).
 *                    Each flip quarantines its shard; a background
 *                    ShardSupervisor snapshots and recovers while the
 *                    other shards keep serving, and clients ride out
 *                    the quarantine windows (requests shed with
 *                    ShardUnavailable are counted, not fatal).
 *   --chaos-seed=N   injection-sequence seed (default 0xc4a05)
 *
 * Note on determinism: the throughput table contains wall-clock
 * measurements and is inherently run-dependent; the cross-check
 * table, stats, and failure list are deterministic. BENCH_serve.json
 * is still written atomically via the shared machinery.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench/bench_util.hh"
#include "obs/metrics.hh"
#include "serve/chaos.hh"
#include "serve/crosscheck.hh"
#include "serve/service.hh"
#include "serve/supervisor.hh"
#include "workloads/composer.hh"

namespace
{

using namespace clap;
using namespace clap::bench;

double faultRatePerSec = 0.0; ///< --fault-rate (0 = chaos off)
std::uint64_t chaosSeed = 0xc4a05; ///< --chaos-seed

/// One representative trace per behavioural family; clients cycle
/// through these so the shard load is a mixed workload.
std::vector<TraceSpec>
clientSpecs()
{
    std::vector<TraceSpec> specs;
    for (const char *suite : {"INT", "MM", "TPC", "NT"})
        specs.push_back(buildSuite(suite).front());
    return specs;
}

struct LoadPoint
{
    unsigned shards = 0;
    unsigned clients = 0;
    std::uint64_t loads = 0;
    double elapsedSec = 0.0;
    double p50Us = 0.0;
    double p95Us = 0.0;
    double p99Us = 0.0;
    std::size_t maxQueueDepth = 0;
    std::uint64_t batches = 0;
    std::uint64_t auditFailures = 0;

    /// @name Chaos-under-load counters (all 0 with --fault-rate=0)
    /// @{
    std::uint64_t unavailable = 0; ///< requests shed ShardUnavailable
    std::uint64_t faults = 0;      ///< bit flips injected
    std::uint64_t recoveries = 0;  ///< shards recovered
    std::uint64_t unrecovered = 0; ///< recovery attempts that failed
    /// @}

    double
    predictionsPerSec() const
    {
        return elapsedSec <= 0.0
            ? 0.0
            : static_cast<double>(loads) / elapsedSec;
    }
};

/** Run one load-generation configuration: @p clients threads replay
 *  pre-generated traces against a @p shards-shard service. */
LoadPoint
runLoadPhase(unsigned shards, unsigned clients,
             const std::vector<std::shared_ptr<const Trace>> &traces)
{
    const bool chaos = faultRatePerSec > 0.0;

    ServiceConfig config;
    config.shards = shards;
    if (chaos)
        config.journalCapacity = 32768;
    PredictionService service(config, hybridFactory());

    // Chaos-under-load: a background supervisor snapshots and
    // health-checks every 25 ms while a chaos thread injects seeded
    // bit flips at --fault-rate; clients ride out the quarantine
    // windows (replayTrace sheds ShardUnavailable).
    std::unique_ptr<ShardSupervisor> supervisor;
    std::unique_ptr<ChaosEngine> engine;
    if (chaos) {
        SupervisorConfig supConfig;
        supConfig.filePrefix =
            "serve_chaos-" + std::to_string(shards);
        supConfig.snapshotIntervalMs = 25;
        supervisor =
            std::make_unique<ShardSupervisor>(service, supConfig);
        ChaosConfig chaosConfig;
        chaosConfig.seed = chaosSeed;
        chaosConfig.killWorkers = false;
        chaosConfig.damageSnapshots = false;
        engine = std::make_unique<ChaosEngine>(service, *supervisor,
                                               chaosConfig);
        if (auto snapped = supervisor->snapshotAll(); !snapped) {
            BenchState::instance().failures.push_back(
                {"serve/load/shards" + std::to_string(shards) +
                     "/chaos-setup",
                 snapped.error().str()});
        }
        supervisor->start();
    }

    std::vector<Expected<ReplayResult>> results;
    results.reserve(clients);
    for (unsigned c = 0; c < clients; ++c)
        results.emplace_back(ReplayResult{});

    std::atomic<bool> loadDone{false};
    std::thread chaosThread;
    if (chaos) {
        const auto interval = std::chrono::microseconds(
            static_cast<std::int64_t>(1e6 / faultRatePerSec));
        chaosThread = std::thread([&service, &engine, &loadDone,
                                   interval] {
            (void)service;
            while (!loadDone.load(std::memory_order_relaxed)) {
                std::this_thread::sleep_for(interval);
                if (loadDone.load(std::memory_order_relaxed))
                    break;
                (void)engine->injectFault();
            }
        });
    }

    const auto begin = std::chrono::steady_clock::now();
    {
        std::vector<std::thread> threads;
        threads.reserve(clients);
        for (unsigned c = 0; c < clients; ++c) {
            threads.emplace_back([&service, &traces, &results, c] {
                ClientSession session = service.connect();
                results[c] = replayTrace(
                    session, *traces[c % traces.size()],
                    /*collect_latencies=*/true);
            });
        }
        for (auto &thread : threads)
            thread.join();
    }
    loadDone.store(true, std::memory_order_relaxed);
    if (chaosThread.joinable())
        chaosThread.join();
    if (supervisor) {
        supervisor->stop();
        // Recover anything that failed after the loop's last pass so
        // the end-of-phase health assertion below is meaningful.
        supervisor->checkAndRecover();
    }
    service.stop();
    const auto end = std::chrono::steady_clock::now();

    LoadPoint point;
    point.shards = shards;
    point.clients = clients;
    point.elapsedSec =
        std::chrono::duration<double>(end - begin).count();

    // Latencies aggregate through the obs histogram estimator —
    // the same interpolated quantiles the live scrape reports.
    obs::HistogramSnapshot latency;
    for (unsigned c = 0; c < clients; ++c) {
        if (!results[c]) {
            BenchState::instance().failures.push_back(
                {"serve/load/shards" + std::to_string(shards) +
                     "/client" + std::to_string(c),
                 results[c].error().str()});
            continue;
        }
        point.loads += results[c]->loads;
        point.unavailable += results[c]->unavailable;
        for (std::uint32_t ns : results[c]->latenciesNs)
            latency.addValue(ns);
    }
    point.p50Us = latency.p50() / 1000.0;
    point.p95Us = latency.p95() / 1000.0;
    point.p99Us = latency.p99() / 1000.0;

    unsigned shard_index = 0;
    for (const ShardSnapshot &snap : service.snapshot()) {
        point.maxQueueDepth =
            std::max(point.maxQueueDepth, snap.maxQueueDepth);
        point.batches += snap.batches;
        // With chaos on, induced audit/worker failures are recovered
        // during the run; one still set here survived the final
        // recovery pass and is a real failure.
        if (snap.auditFailed) {
            ++point.auditFailures;
            BenchState::instance().failures.push_back(
                {"serve/load/shards" + std::to_string(shards) +
                     "/audit",
                 snap.auditError.str()});
        }
        if (snap.quarantined) {
            BenchState::instance().failures.push_back(
                {"serve/load/shards" + std::to_string(shards) +
                     "/shard" + std::to_string(shard_index),
                 "shard still quarantined after the final recovery "
                 "pass"});
        }
        ++shard_index;
    }
    if (chaos) {
        point.faults = engine->counts().total();
        const SupervisorStats sup = supervisor->stats();
        point.recoveries = sup.recoveries;
        point.unrecovered = sup.unrecovered;
        if (sup.unrecovered != 0) {
            BenchState::instance().failures.push_back(
                {"serve/load/shards" + std::to_string(shards) +
                     "/recovery",
                 std::to_string(sup.unrecovered) +
                     " recovery attempts failed"});
        }
        for (unsigned s = 0; s < shards; ++s)
            std::remove(supervisor->shardSnapshotPath(s).c_str());
    }
    return point;
}

/** One deterministic cross-check cell as a self-contained sweep job:
 *  stats divergence is a CorruptedState failure of the job. */
SweepJob
crosscheckJob(const std::string &key, const TraceSpec &spec,
              unsigned shards)
{
    SweepJob job;
    job.key = key;
    job.run = [spec, shards](const JobContext &) -> Expected<JobResult> {
        const std::shared_ptr<const Trace> trace =
            globalTraceStore().get(spec, defaultTraceLength());
        ServiceConfig config;
        config.shards = shards;
        // A sparser audit keeps the replay cheap; audits do not
        // change stats.
        config.auditEveryBatches = 256;
        auto checked = crosscheckTrace(*trace, hybridFactory(), config);
        if (!checked) {
            return std::move(checked.error())
                .withContext("crosscheck on '" + spec.name + "'");
        }
        if (!checked->equal()) {
            return makeError(
                       ErrorCode::CorruptedState,
                       "service stats diverge from PredictorSim "
                       "(service spec=" +
                           std::to_string(checked->service.spec) +
                           " correct=" +
                           std::to_string(checked->service.specCorrect) +
                           ", reference spec=" +
                           std::to_string(checked->reference.spec) +
                           " correct=" +
                           std::to_string(
                               checked->reference.specCorrect) +
                           ")")
                .withContext("crosscheck on '" + spec.name + "'");
        }
        JobResult result;
        result.stats = checked->service;
        result.hasStats = true;
        result.aux0 = 1; // stats equality held
        return result;
    };
    return job;
}

struct ServeResults
{
    std::vector<LoadPoint> loadPoints;
    SweepReport crosscheck;
    std::vector<std::string> crosscheckKeys;
};

ServeResults
results()
{
    ServeResults out;
    const unsigned sharded = envShardCount("CLAP_SERVE_SHARDS");
    const unsigned clients = envUnsigned("CLAP_SERVE_CLIENTS", 4, 1, 1024);
    const std::vector<TraceSpec> specs = clientSpecs();

    // The store shares each client trace with the cross-check
    // phase below (and caps the process at one copy per spec).
    std::vector<std::shared_ptr<const Trace>> traces;
    traces.reserve(specs.size());
    for (const auto &spec : specs) {
        traces.push_back(
            globalTraceStore().get(spec, defaultTraceLength()));
    }

    std::vector<unsigned> shard_counts{1};
    if (sharded > 1)
        shard_counts.push_back(sharded);
    for (unsigned shards : shard_counts)
        out.loadPoints.push_back(
            runLoadPhase(shards, clients, traces));

    std::vector<SweepJob> jobs;
    for (unsigned shards : shard_counts) {
        for (const auto &spec : specs) {
            const std::string key = "crosscheck/shards" +
                std::to_string(shards) + "/" + spec.name;
            out.crosscheckKeys.push_back(key);
            jobs.push_back(crosscheckJob(key, spec, shards));
        }
    }
    out.crosscheck = runSweepJobs(jobs);
    return out;
}

void
printResults()
{
    const ServeResults res = results();

    Table load;
    load.row({"shards", "clients", "loads", "preds/s", "p50_us",
              "p95_us", "p99_us", "qdepth_max", "batches",
              "audit_fail", "unavail", "faults", "recovered"});
    for (const LoadPoint &point : res.loadPoints) {
        load.newRow();
        load.cell(static_cast<std::uint64_t>(point.shards));
        load.cell(static_cast<std::uint64_t>(point.clients));
        load.cell(point.loads);
        load.cell(point.predictionsPerSec(), 0);
        load.cell(point.p50Us, 2);
        load.cell(point.p95Us, 2);
        load.cell(point.p99Us, 2);
        load.cell(static_cast<std::uint64_t>(point.maxQueueDepth));
        load.cell(point.batches);
        load.cell(point.auditFailures);
        load.cell(point.unavailable);
        load.cell(point.faults);
        load.cell(point.recoveries);
    }
    printTable("Service load generation: throughput / latency vs "
               "shard count (wall-clock; run-dependent)",
               load);

    Table check;
    check.row({"cell", "loads", "spec", "correct", "stats_equal"});
    for (std::size_t j = 0; j < res.crosscheck.outcomes.size(); ++j) {
        const JobOutcome &outcome = res.crosscheck.outcomes[j];
        check.newRow();
        check.cell(res.crosscheckKeys[j]);
        if (outcome.ok) {
            check.cell(outcome.result.stats.loads);
            check.cell(outcome.result.stats.spec);
            check.cell(outcome.result.stats.specCorrect);
            check.cell(outcome.result.aux0 == 1 ? "yes" : "NO");
        } else {
            check.cell("-");
            check.cell("-");
            check.cell("-");
            check.cell("FAILED");
        }
    }
    printTable("Deterministic cross-check: service stats vs "
               "PredictorSim reference (must all be yes)",
               check);

    if (res.loadPoints.size() >= 2) {
        const double base = res.loadPoints.front().predictionsPerSec();
        const double sharded =
            res.loadPoints.back().predictionsPerSec();
        std::printf("\nsharded/1-shard throughput ratio: %.2fx "
                    "(gains need cores; on a single-CPU host the "
                    "configurations should roughly tie)\n",
                    base <= 0.0 ? 0.0 : sharded / base);
    }
    std::printf("expected: every cross-check row reports stats_equal "
                "= yes — the service layer must not change prediction "
                "semantics\n");
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace clap::bench;
    return benchMain("serve", argc, argv, printResults,
                     {numberFlag("--fault-rate", faultRatePerSec, 0.0, 1e6),
                      seedFlag("--chaos-seed", chaosSeed)});
}
