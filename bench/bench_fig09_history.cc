/**
 * @file
 * Figure 9: correct speculative accesses (out of all dynamic loads)
 * of a stand-alone CAP predictor as a function of the history length
 * {1, 2, 3, 4, 6, 12}, with and without global correlation (base
 * addresses). No confidence mechanisms, to isolate the effect.
 *
 * Paper reference points: global correlation is worth ~10% of all
 * loads; the optimum history length is 2 without correlation and 3-4
 * with it; length 12 declines on both curves.
 */

#include "bench/bench_util.hh"

namespace
{

using namespace clap;
using namespace clap::bench;

constexpr unsigned historyLengths[] = {1, 2, 3, 4, 6, 12};

struct Fig9Results
{
    std::vector<double> withCorr;
    std::vector<double> withoutCorr;
};

Fig9Results
results()
{
    const std::size_t len = defaultTraceLength();
    Fig9Results r;
    for (const bool corr : {true, false}) {
        for (const unsigned hist : historyLengths) {
            PredictorFactory factory = [corr, hist] {
                CapPredictorConfig config;
                config.cap.useConfidence = false;
                config.cap.globalCorrelation = corr;
                config.cap.historyLength = hist;
                return std::make_unique<CapPredictor>(config);
            };
            const std::string label =
                std::string(corr ? "corr" : "nocorr") + "_h" +
                std::to_string(hist);
            const auto suites =
                sweepPerSuite(label, factory, {}, len);
            const double value =
                suites.back().stats.correctOfAllLoads();
            (corr ? r.withCorr : r.withoutCorr).push_back(value);
        }
    }
    return r;
}

void
printResults()
{
    const auto r = results();
    Table table;
    table.row({"history_length", "global_corr", "no_global_corr",
               "benefit"});
    for (std::size_t i = 0; i < std::size(historyLengths); ++i) {
        table.newRow();
        table.cell(std::uint64_t{historyLengths[i]});
        table.percent(r.withCorr[i]);
        table.percent(r.withoutCorr[i]);
        table.percent(r.withCorr[i] - r.withoutCorr[i]);
    }
    printTable("Figure 9: correct spec accesses of all loads vs "
               "history length (stand-alone CAP, no confidence)",
               table);
    std::printf("\npaper: correlation worth ~10%% of loads; optimum "
                "history 2 without correlation, 3-4 with it\n");
}

} // namespace

int
main(int argc, char **argv)
{
    return clap::bench::benchMain("fig09_history", argc, argv,
                                  printResults);
}
