/**
 * @file
 * Figure 11: influence of the prediction gap on the enhanced stride
 * and hybrid predictors — prediction rate and accuracy for
 * {immediate, 4, 8, 12} cycles between prediction and verification.
 *
 * Paper reference points: hybrid rate drops ~7% going to a realistic
 * pipeline and is then nearly flat in the gap; accuracy falls from
 * 98.9% to 96.6% at gap 4 and 96.1% at gap 12; correct predictions
 * of the hybrid stay ~8.6% above the enhanced stride.
 */

#include "bench/bench_util.hh"

namespace
{

using namespace clap;
using namespace clap::bench;

constexpr unsigned gaps[] = {0, 4, 8, 12};

struct GapResults
{
    std::vector<PredictionStats> stride;
    std::vector<PredictionStats> hybrid;
};

GapResults
results()
{
    const std::size_t len = defaultTraceLength();
    GapResults r;
    for (const unsigned gap : gaps) {
        PredictorSimConfig sim;
        sim.gapCycles = gap;
        const std::string suffix = "_g" + std::to_string(gap);
        r.stride.push_back(
            sweepPerSuite("stride" + suffix,
                          strideFactory(gap != 0), sim, len)
                .back()
                .stats);
        r.hybrid.push_back(
            sweepPerSuite("hybrid" + suffix,
                          hybridFactory(gap != 0), sim, len)
                .back()
                .stats);
    }
    return r;
}

void
printResults()
{
    const auto r = results();
    Table table;
    table.row({"gap", "stride_rate", "hybrid_rate", "stride_acc",
               "hybrid_acc", "stride_corr", "hybrid_corr"});
    for (std::size_t g = 0; g < std::size(gaps); ++g) {
        table.newRow();
        table.cell(gaps[g] == 0 ? std::string("immediate")
                                : std::to_string(gaps[g]));
        table.percent(r.stride[g].predictionRate());
        table.percent(r.hybrid[g].predictionRate());
        table.percent(r.stride[g].accuracy());
        table.percent(r.hybrid[g].accuracy());
        table.percent(r.stride[g].correctOfAllLoads());
        table.percent(r.hybrid[g].correctOfAllLoads());
    }
    printTable("Figure 11: prediction rate / accuracy vs prediction "
               "gap (average over all traces)",
               table);
    std::printf("\npaper: hybrid correct 65.9%% imm -> 57.9%% @4 -> "
                "57.4%% @8; accuracy 98.9 -> 96.6 -> 96.1; hybrid "
                "stays ~8.6%% above stride\n");
}

} // namespace

int
main(int argc, char **argv)
{
    return clap::bench::benchMain("fig11_gap", argc, argv,
                                  printResults);
}
