/**
 * @file
 * Figure 6: prediction rate of the hybrid CAP/enhanced-stride
 * predictor as a function of the load-buffer size and associativity
 * (2K 2-way, 4K 1-way, 4K 2-way, 4K 4-way, 8K 2-way).
 *
 * Paper reference points: CAD, JAVA, NT, TPC and W95 (the suites
 * with many static loads) steadily gain from bigger LBs; 2-way is a
 * clear win over direct-mapped; >2-way is marginal; accuracy is flat
 * (~98.9%) across configurations.
 */

#include "bench/bench_util.hh"

namespace
{

using namespace clap;
using namespace clap::bench;

struct LbConfig
{
    const char *label;
    std::size_t entries;
    unsigned assoc;
};

constexpr LbConfig lbConfigs[] = {
    {"2K,2way", 2048, 2}, {"4K,1way", 4096, 1}, {"4K,2way", 4096, 2},
    {"4K,4way", 4096, 4}, {"8K,2way", 8192, 2},
};

std::vector<std::vector<SuiteStats>>
results()
{
    const std::size_t len = defaultTraceLength();
    std::vector<std::vector<SuiteStats>> r;
    for (const auto &lb : lbConfigs) {
        PredictorFactory factory = [&lb] {
            HybridConfig config;
            config.lb.entries = lb.entries;
            config.lb.assoc = lb.assoc;
            return std::make_unique<HybridPredictor>(config);
        };
        r.push_back(sweepPerSuite(lb.label, factory, {}, len));
    }
    return r;
}

void
printResults()
{
    const auto r = results();
    Table table;
    {
        std::vector<std::string> header = {"suite"};
        for (const auto &lb : lbConfigs)
            header.push_back(lb.label);
        header.push_back("acc(4K,2way)");
        table.row(header);
    }
    const std::size_t rows = r.front().size();
    for (std::size_t i = 0; i < rows; ++i) {
        table.newRow();
        table.cell(r.front()[i].suite);
        for (std::size_t c = 0; c < std::size(lbConfigs); ++c)
            table.percent(r[c][i].stats.predictionRate());
        table.percent(r[2][i].stats.accuracy());
    }
    printTable("Figure 6: hybrid prediction rate vs LB size/assoc",
               table);
    std::printf("\npaper: rate rises steadily with LB size for CAD/"
                "JAV/NT/TPC/W95; 2-way >> 1-way; 4-way marginal; "
                "accuracy flat ~98.9%%\n");
}

} // namespace

int
main(int argc, char **argv)
{
    return clap::bench::benchMain("fig06_lb_sweep", argc, argv,
                                  printResults);
}
