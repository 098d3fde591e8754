/**
 * @file
 * Section 3.6: control-based address predictors as an alternative to
 * CAP for control-dependent loads — a g-share scheme (load PC xor
 * global branch history indexing an address table) and the same
 * structure indexed by call-path history.
 *
 * Paper reference points (qualitative): the g-share scheme "gives
 * poor results mainly because the loads are not well correlated to
 * all the individual conditional branches"; path history over recent
 * call sites "gives better results" but still not enough to be "a
 * viable substitute" for the context-based predictor.
 */

#include "bench/bench_util.hh"

#include "core/control_predictor.hh"

namespace
{

using namespace clap;
using namespace clap::bench;

struct ControlResults
{
    std::vector<SuiteStats> gshare;
    std::vector<SuiteStats> path;
    std::vector<SuiteStats> cap;
};

ControlResults
results()
{
    const std::size_t len = defaultTraceLength();
    ControlResults r;
    PredictorFactory gshare_factory = [] {
        ControlPredictorConfig config;
        config.usePathHistory = false;
        return std::make_unique<ControlAddressPredictor>(config);
    };
    PredictorFactory path_factory = [] {
        ControlPredictorConfig config;
        config.usePathHistory = true;
        return std::make_unique<ControlAddressPredictor>(config);
    };
    r.gshare = sweepPerSuite("gshare", gshare_factory, {}, len);
    r.path = sweepPerSuite("path", path_factory, {}, len);
    r.cap = sweepPerSuite("cap", capFactory(), {}, len);
    return r;
}

void
printResults()
{
    const auto r = results();
    Table table;
    table.row({"suite", "gshare_corr", "path_corr", "cap_corr"});
    for (std::size_t i = 0; i < r.cap.size(); ++i) {
        table.newRow();
        table.cell(r.cap[i].suite);
        table.percent(r.gshare[i].stats.correctOfAllLoads());
        table.percent(r.path[i].stats.correctOfAllLoads());
        table.percent(r.cap[i].stats.correctOfAllLoads());
    }
    printTable("Section 3.6: control-based address predictors vs CAP "
               "(correct of all loads)",
               table);
    std::printf("\npaper (qualitative): gshare-style poor, path "
                "history better, neither a viable substitute for the "
                "context-based predictor\n");
}

} // namespace

int
main(int argc, char **argv)
{
    return clap::bench::benchMain("control_based", argc, argv,
                                  printResults);
}
