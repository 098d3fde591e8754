/**
 * @file
 * Fault-resilience sweep: soft-error injection rate (faults per
 * million dynamic loads) versus prediction coverage and misprediction
 * rate, for a naive CAP predictor (no LT tags, no path indications,
 * no PF bits) against the paper's enhanced baseline (8-bit tags,
 * 4 path bits, 4 PF bits).
 *
 * The paper's robustness argument (all predictor state is
 * speculative, so corruption costs performance, never correctness)
 * predicts two curves: coverage degrades smoothly with the fault
 * rate, and the enhanced confidence mechanisms shield accuracy — a
 * flipped link or history bit usually fails the tag match or the
 * confidence threshold instead of feeding a wrong address to the
 * pipeline. The naive configuration speculates on whatever the
 * corrupted LT entry holds, so its misprediction rate climbs faster.
 */

#include <vector>

#include "bench/bench_util.hh"
#include "sim/fault_injector.hh"
#include "sim/predictor_sim.hh"
#include "workloads/composer.hh"

namespace
{

using namespace clap;
using namespace clap::bench;

/// Faults per million loads; 0 is the healthy baseline.
constexpr double rates[] = {0, 100, 500, 1000, 2500, 5000, 10000};

struct SweepPoint
{
    PredictionStats naive;
    PredictionStats enhanced;
    std::uint64_t naiveFaults = 0;
    std::uint64_t enhancedFaults = 0;
};

CapPredictorConfig
naiveConfig()
{
    CapPredictorConfig config;
    config.cap.ltTagBits = 0;
    config.cap.pathBits = 0;
    config.cap.pfBits = 0;
    return config;
}

/// One trace per behavioural family keeps the sweep representative
/// without paying for the full 45-trace catalog at every rate.
std::vector<TraceSpec>
sweepSpecs()
{
    std::vector<TraceSpec> specs;
    for (const char *suite : {"INT", "MM", "TPC", "NT"})
        specs.push_back(buildSuite(suite).front());
    return specs;
}

/**
 * One fault-injection cell as a self-contained sweep job. The
 * injector seed is salted with the retry attempt: a job failing its
 * post-run structural audit (CorruptedState, retryable) draws a fresh
 * fault pattern on the retry instead of deterministically re-failing.
 */
SweepJob
faultJob(const std::string &key, const TraceSpec &spec,
         const CapPredictorConfig &config, double rate)
{
    SweepJob job;
    job.key = key;
    job.run = [spec, config,
               rate](const JobContext &ctx) -> Expected<JobResult> {
        const Trace trace = generateTrace(spec, defaultTraceLength());
        CapPredictor predictor{config};
        FaultInjectorConfig fault_config;
        fault_config.faultsPerMillionLoads = rate;
        fault_config.seed += ctx.attempt;
        FaultInjector injector(fault_config);
        injector.attach(predictor);

        PredictorSimConfig sim;
        sim.faultInjector = &injector;
        sim.cancel = ctx.cancel;
        JobResult result;
        result.stats = runPredictorSim(trace, predictor, sim);
        result.hasStats = true;
        result.faults = injector.counts().total();
        if (auto audit = predictor.audit(); !audit) {
            return std::move(audit.error())
                .withContext("after fault injection on '" +
                             spec.name + "'");
        }
        return result;
    };
    return job;
}

std::vector<SweepPoint>
results()
{
    const std::vector<TraceSpec> specs = sweepSpecs();
    std::vector<SweepJob> jobs;
    for (std::size_t i = 0; i < std::size(rates); ++i) {
        const std::string prefix =
            "rate" + std::to_string(static_cast<unsigned long long>(
                         rates[i]));
        for (const auto &spec : specs) {
            jobs.push_back(faultJob(
                prefix + "/naive/" + spec.name, spec,
                naiveConfig(), rates[i]));
            jobs.push_back(faultJob(
                prefix + "/enhanced/" + spec.name, spec,
                CapPredictorConfig{}, rates[i]));
        }
    }

    const SweepReport report = runSweepJobs(jobs);

    // Fold outcomes back into per-rate points; failed cells
    // contribute nothing (graceful degradation) and appear in the
    // harness failure list instead.
    std::vector<SweepPoint> points(std::size(rates));
    const std::size_t per_rate = 2 * specs.size();
    for (std::size_t j = 0; j < report.outcomes.size(); ++j) {
        const JobOutcome &outcome = report.outcomes[j];
        if (!outcome.ok)
            continue;
        SweepPoint &point = points[j / per_rate];
        const bool naive = (j % 2) == 0;
        if (naive) {
            point.naive.merge(outcome.result.stats);
            point.naiveFaults += outcome.result.faults;
        } else {
            point.enhanced.merge(outcome.result.stats);
            point.enhancedFaults += outcome.result.faults;
        }
    }
    return points;
}

void
printResults()
{
    const std::vector<SweepPoint> points = results();
    Table table;
    table.row({"faults/M", "injected", "naive_cover", "naive_mispred",
               "enh_cover", "enh_mispred"});
    for (std::size_t i = 0; i < std::size(rates); ++i) {
        const SweepPoint &point = points[i];
        table.newRow();
        table.cell(std::to_string(
            static_cast<unsigned long long>(rates[i])));
        table.cell(std::to_string(point.naiveFaults +
                                  point.enhancedFaults));
        table.percent(point.naive.predictionRate(), 2);
        table.percent(point.naive.mispredictionRate(), 3);
        table.percent(point.enhanced.predictionRate(), 2);
        table.percent(point.enhanced.mispredictionRate(), 3);
    }
    printTable("Fault resilience: coverage/misprediction vs injected "
               "soft-error rate (naive CAP vs enhanced confidence)",
               table);
    std::printf("\nexpected: coverage decays smoothly with the fault "
                "rate; the enhanced config (tags + path + PF) holds a "
                "lower misprediction rate at every injection level\n");
}

} // namespace

int
main(int argc, char **argv)
{
    return clap::bench::benchMain("fault_resilience", argc, argv,
                                  printResults);
}
