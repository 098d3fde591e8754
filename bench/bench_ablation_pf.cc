/**
 * @file
 * Ablation for the pollution-free (PF) bits of section 3.5: the
 * stand-alone CAP predictor with PF bits on vs off, overall and on
 * the pollution-heavy suites. The paper gives no figure for this
 * knob; the expectation from the text is that PF bits trade a longer
 * training time for protection of recurring links against irregular
 * and very long sequences, i.e. they should help most where random
 * loads and big arrays coexist with recurring patterns (TPC, W95,
 * MM) and never cost much.
 */

#include "bench/bench_util.hh"

namespace
{

using namespace clap;
using namespace clap::bench;

struct PfResults
{
    std::vector<SuiteStats> with;
    std::vector<SuiteStats> without;
    std::vector<SuiteStats> decoupled;
};

PfResults
results()
{
    const std::size_t len = defaultTraceLength();
    PfResults r;
    r.with = sweepPerSuite("pf_on", capFactory(), {}, len);
    PredictorFactory no_pf = [] {
        CapPredictorConfig config;
        config.cap.pfBits = 0;
        return std::make_unique<CapPredictor>(config);
    };
    r.without = sweepPerSuite("pf_off", no_pf, {}, len);
    PredictorFactory decoupled_pf = [] {
        CapPredictorConfig config;
        config.cap.pfTableBits = 16;
        return std::make_unique<CapPredictor>(config);
    };
    r.decoupled =
        sweepPerSuite("pf_decoupled", decoupled_pf, {}, len);
    return r;
}

void
printResults()
{
    const auto r = results();
    Table table;
    table.row({"suite", "pf_on_rate", "pf_off_rate", "pf_decoup_rate",
               "pf_on_acc", "pf_off_acc", "pf_decoup_acc"});
    for (std::size_t i = 0; i < r.with.size(); ++i) {
        table.newRow();
        table.cell(r.with[i].suite);
        table.percent(r.with[i].stats.predictionRate());
        table.percent(r.without[i].stats.predictionRate());
        table.percent(r.decoupled[i].stats.predictionRate());
        table.percent(r.with[i].stats.accuracy());
        table.percent(r.without[i].stats.accuracy());
        table.percent(r.decoupled[i].stats.accuracy());
    }
    printTable("Ablation (section 3.5): CAP PF bits on/off/decoupled",
               table);
    std::printf("\npaper (qualitative): PF bits protect recurring "
                "links from pollution by irregular/long sequences at "
                "the cost of training time\n");
}

} // namespace

int
main(int argc, char **argv)
{
    return clap::bench::benchMain("ablation_pf", argc, argv,
                                  printResults);
}
