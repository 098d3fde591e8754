/**
 * @file
 * Figure 8: distribution of the 2-bit selector states for loads
 * predicted (speculated) by BOTH hybrid components, plus the correct
 * selection rate.
 *
 * Paper reference points: almost 90% of such loads see the selector
 * in one of the two CAP states; the correct-selection rate is ~99.9%
 * ("quite close to perfect").
 */

#include "bench/bench_util.hh"

namespace
{

using namespace clap;
using namespace clap::bench;

void
printResults()
{
    const std::vector<SuiteStats> suites = sweepPerSuite(
        "hybrid", hybridFactory(), {}, defaultTraceLength());
    Table table;
    table.row({"suite", "strongStride", "weakStride", "weakCAP",
               "strongCAP", "correct_sel", "both_frac"});
    for (const auto &suite : suites) {
        const auto &s = suite.stats;
        const double both =
            s.bothSpec == 0 ? 1.0 : static_cast<double>(s.bothSpec);
        table.newRow();
        table.cell(suite.suite);
        for (int state = 0; state < 4; ++state)
            table.percent(s.selectorState[state] / both);
        table.percent(s.correctSelectionRate(), 2);
        table.percent(ratio(s.bothSpec, s.spec));
    }
    printTable("Figure 8: selector state distribution (loads "
               "speculated by both components)",
               table);
    std::printf("\npaper: ~90%% of both-predicted loads sit in the two "
                "CAP states; correct selection ~99.9%%; ~80%% of all "
                "speculative accesses are both-predicted\n");
}

} // namespace

int
main(int argc, char **argv)
{
    return clap::bench::benchMain("fig08_selector", argc, argv,
                                  printResults);
}
