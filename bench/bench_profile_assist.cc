/**
 * @file
 * Section 6 (future work): profile feedback / software assist — "to
 * ease the hardware work by letting the compiler/profiler classify
 * loads according to the expected address pattern... This reduces
 * warm-up time, helps reducing predictor size, and eliminates
 * prediction table pollution."
 *
 * For each trace we profile a training run, classify the static
 * loads, and compare the plain hybrid with the profile-assisted
 * hybrid at the baseline size and at a quarter-size configuration.
 * Expectation: with small tables the profile-assisted predictor wins
 * (the Unknown loads stop polluting, the LT is reserved for context
 * loads); at the full size the two converge.
 */

#include "bench/bench_util.hh"

#include "core/profile.hh"
#include "workloads/composer.hh"

namespace
{

using namespace clap;
using namespace clap::bench;

struct ProfileResults
{
    // [sizeIdx]: 0 = baseline size, 1 = quarter size
    PredictionStats plain[2];
    PredictionStats profiled[2];
    double unknownFraction = 0.0;
};

HybridConfig
sizedConfig(bool small)
{
    HybridConfig config;
    if (small) {
        config.lb.entries = 1024;
        config.cap.ltEntries = 512;
    }
    return config;
}

/**
 * One profile-assist cell as a self-contained sweep job: regenerate
 * the trace, profile it when @p profiled, run the predictor, audit.
 * The size-0 profiled job additionally reports the static-load
 * classification counts through the aux counters (aux0 = classified
 * static loads, aux1 = those left Unknown).
 */
SweepJob
profileJob(const std::string &key, const TraceSpec &spec, bool small,
           bool profiled, bool count_classes)
{
    SweepJob job;
    job.key = key;
    job.run = [spec, small, profiled, count_classes](
                  const JobContext &ctx) -> Expected<JobResult> {
        const Trace trace =
            generateTrace(spec, defaultTraceLength());
        JobResult result;
        PredictorSimConfig sim;
        sim.cancel = ctx.cancel;
        std::unique_ptr<AddressPredictor> predictor;
        if (profiled) {
            LoadClassifier classifier;
            for (const auto &rec : trace.records()) {
                if (rec.isLoad())
                    classifier.observe(rec.pc, rec.effAddr);
            }
            const auto classes = classifier.classifyAll();
            if (count_classes) {
                for (const auto &[pc, cls] : classes) {
                    (void)pc;
                    ++result.aux0;
                    result.aux1 +=
                        cls == LoadClass::Unknown ? 1 : 0;
                }
            }
            predictor = std::make_unique<ProfileAssistedPredictor>(
                sizedConfig(small), classes);
        } else {
            predictor = std::make_unique<HybridPredictor>(
                sizedConfig(small));
        }
        result.stats = runPredictorSim(trace, *predictor, sim);
        result.hasStats = true;
        if (auto audit = predictor->audit(); !audit) {
            return std::move(audit.error())
                .withContext("after trace '" + spec.name + "'");
        }
        return result;
    };
    return job;
}

ProfileResults
results()
{
    std::vector<SweepJob> jobs;
    for (const auto &spec : buildCatalog()) {
        for (const int size : {0, 1}) {
            const std::string suffix =
                (size == 1 ? "/small/" : "/base/") + spec.name;
            jobs.push_back(profileJob("plain" + suffix, spec,
                                      size == 1, false, false));
            jobs.push_back(profileJob("profiled" + suffix, spec,
                                      size == 1, true,
                                      size == 0));
        }
    }

    const SweepReport report = runSweepJobs(jobs);

    ProfileResults r;
    std::uint64_t unknown = 0;
    std::uint64_t total = 0;
    // Job layout per spec: plain/base, profiled/base,
    // plain/small, profiled/small.
    for (std::size_t j = 0; j < report.outcomes.size(); ++j) {
        const JobOutcome &outcome = report.outcomes[j];
        if (!outcome.ok)
            continue;
        const int size = static_cast<int>((j % 4) / 2);
        if ((j % 2) == 0) {
            r.plain[size].merge(outcome.result.stats);
        } else {
            r.profiled[size].merge(outcome.result.stats);
            total += outcome.result.aux0;
            unknown += outcome.result.aux1;
        }
    }
    r.unknownFraction =
        total == 0 ? 0.0 : static_cast<double>(unknown) / total;
    return r;
}

void
printResults()
{
    const auto r = results();
    Table table;
    table.row({"config", "plain_correct", "profiled_correct",
               "plain_acc", "profiled_acc"});
    const char *labels[2] = {"baseline (4K LB / 4K LT)",
                             "small (1K LB / 512 LT)"};
    for (int size = 0; size < 2; ++size) {
        table.newRow();
        table.cell(std::string(labels[size]));
        table.percent(r.plain[size].correctOfAllLoads());
        table.percent(r.profiled[size].correctOfAllLoads());
        table.percent(r.plain[size].accuracy());
        table.percent(r.profiled[size].accuracy());
    }
    printTable("Section 6 extension: profile-assisted hybrid vs "
               "plain hybrid",
               table);
    std::printf("\nstatic loads classified Unknown (filtered): "
                "%.1f%%\n",
                100.0 * r.unknownFraction);
    std::printf("paper (qualitative): classification reduces warm-up "
                "time, predictor size, and table pollution\n");
}

} // namespace

int
main(int argc, char **argv)
{
    return clap::bench::benchMain("profile_assist", argc, argv,
                                  printResults);
}
