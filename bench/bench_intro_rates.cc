/**
 * @file
 * Section 1 in-text numbers: "Last-address predictors surprisingly
 * handle an average of 40% of all load addresses, whereas stride-based
 * predictors add an additional 13%."
 *
 * Metric: correctly predicted speculative accesses out of all dynamic
 * loads, for the last-address baseline and the enhanced stride
 * predictor, over the whole catalog.
 */

#include "bench/bench_util.hh"

namespace
{

using namespace clap;
using namespace clap::bench;

struct IntroResults
{
    std::vector<SuiteStats> last;
    std::vector<SuiteStats> stride;
};

IntroResults
results()
{
    const std::size_t len = defaultTraceLength();
    IntroResults r;
    r.last = sweepPerSuite("last", lastAddressFactory(), {}, len);
    r.stride = sweepPerSuite("stride", strideFactory(), {}, len);
    return r;
}

void
printResults()
{
    const auto r = results();
    Table table;
    table.row({"suite", "last_correct", "stride_correct", "delta"});
    for (std::size_t i = 0; i < r.last.size(); ++i) {
        table.newRow();
        table.cell(r.last[i].suite);
        table.percent(r.last[i].stats.correctOfAllLoads());
        table.percent(r.stride[i].stats.correctOfAllLoads());
        table.percent(r.stride[i].stats.correctOfAllLoads() -
                      r.last[i].stats.correctOfAllLoads());
    }
    printTable("Section 1: last-address vs stride coverage "
               "(correct of all loads)",
               table);
    std::printf("\npaper (Average): last-address ~40%%, stride adds "
                "~13%% (total ~53%%)\n");
}

} // namespace

int
main(int argc, char **argv)
{
    return clap::bench::benchMain("intro_rates", argc, argv,
                                  printResults);
}
