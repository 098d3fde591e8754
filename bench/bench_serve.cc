/**
 * @file
 * The semantics cross-check of the sharded prediction service
 * (src/serve/, serve/crosscheck.hh), run as sweep jobs through the
 * resilient runner: for each (trace, shards) cell, a single-client
 * service replay must produce PredictionStats bit-for-bit equal to
 * the sharded PredictorSim reference. A mismatch fails the job and
 * the harness exits 3, which the smoke_serve ctest asserts. The
 * service's throughput and latency are measured by bench_ladder's
 * serve-closed workload (bench/ladder/).
 *
 * Environment knobs (besides the shared bench/sweep flags):
 *   CLAP_SERVE_SHARDS   sharded configuration size, checked next to
 *                       one shard (default 4, at most 4096; rounded
 *                       down to a power of two)
 *   CLAP_TRACE_INSTS    per-trace instruction budget (suites.hh)
 * A malformed or out-of-range shard count exits 2, naming the
 * variable. Every table is deterministic, so BENCH_serve.json is
 * byte-identical across runs with the same environment.
 */

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "serve/crosscheck.hh"
#include "serve/service.hh"
#include "workloads/composer.hh"

namespace
{

using namespace clap;
using namespace clap::bench;

/// One representative trace per behavioural family.
std::vector<TraceSpec>
checkSpecs()
{
    std::vector<TraceSpec> specs;
    for (const char *suite : {"INT", "MM", "TPC", "NT"})
        specs.push_back(buildSuite(suite).front());
    return specs;
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

void
printResults()
{
    std::vector<unsigned> shard_counts{1};
    if (const unsigned sharded = envShardCount("CLAP_SERVE_SHARDS");
        sharded > 1)
        shard_counts.push_back(sharded);

    std::vector<std::string> keys;
    std::vector<SweepJob> jobs;
    for (unsigned shards : shard_counts) {
        for (const auto &spec : checkSpecs()) {
            keys.push_back("crosscheck/shards" + std::to_string(shards) +
                           "/" + spec.name);
            jobs.push_back(crosscheckJob(keys.back(), spec, shards));
        }
    }
    const SweepReport report = runSweepJobs(jobs);

    Table check;
    check.row({"cell", "loads", "spec", "correct", "stats_equal"});
    for (std::size_t j = 0; j < report.outcomes.size(); ++j) {
        const JobOutcome &outcome = report.outcomes[j];
        check.newRow();
        check.cell(keys[j]);
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

    std::printf("\nexpected: every cross-check row reports stats_equal "
                "= yes — the service layer must not change prediction "
                "semantics\n");
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace clap::bench;
    return benchMain("serve", argc, argv, printResults);
}
