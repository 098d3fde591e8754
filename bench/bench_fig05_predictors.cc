/**
 * @file
 * Figure 5: prediction rate and accuracy of the enhanced stride,
 * stand-alone CAP, and hybrid CAP/stride predictors per suite with
 * the immediate-update model and the baseline configuration
 * (4K-entry 2-way LB, 4K-entry direct-mapped LT, base addresses,
 * control-flow indications, PF bits, LT tags).
 *
 * Paper reference points: hybrid predicts 67% of loads at 98.9%
 * accuracy; CAP alone 61%; CAP is 5-13% above stride everywhere but
 * MM, where arrays overwhelm the LT; misprediction rate of the
 * hybrid is ~27% lower than stride's.
 */

#include "bench/bench_util.hh"

namespace
{

using namespace clap;
using namespace clap::bench;

struct Fig5Results
{
    std::vector<SuiteStats> stride;
    std::vector<SuiteStats> cap;
    std::vector<SuiteStats> hybrid;
};

Fig5Results
results()
{
    const std::size_t len = defaultTraceLength();
    Fig5Results r;
    r.stride = sweepPerSuite("stride", strideFactory(), {}, len);
    r.cap = sweepPerSuite("cap", capFactory(), {}, len);
    r.hybrid = sweepPerSuite("hybrid", hybridFactory(), {}, len);
    return r;
}

void
printFig5()
{
    const auto r = results();
    Table table;
    table.row({"suite", "stride_rate", "cap_rate", "hybrid_rate",
               "stride_acc", "cap_acc", "hybrid_acc"});
    for (std::size_t i = 0; i < r.hybrid.size(); ++i) {
        table.newRow();
        table.cell(r.hybrid[i].suite);
        table.percent(r.stride[i].stats.predictionRate());
        table.percent(r.cap[i].stats.predictionRate());
        table.percent(r.hybrid[i].stats.predictionRate());
        table.percent(r.stride[i].stats.accuracy());
        table.percent(r.cap[i].stats.accuracy());
        table.percent(r.hybrid[i].stats.accuracy());
    }
    printTable("Figure 5: prediction rate / accuracy per suite", table);
    std::printf("\npaper (Average): stride ~53%%, CAP ~61%%, hybrid "
                "~67%% @ ~98.9%% accuracy\n");
}

} // namespace

int
main(int argc, char **argv)
{
    return clap::bench::benchMain("fig05_predictors", argc, argv,
                                  printFig5);
}
