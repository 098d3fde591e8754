/**
 * @file
 * Section 4.2 in-text: hybrid prediction-rate sensitivity to the
 * link-table size — "the hybrid prediction rate steadily increases
 * from 63% for 1K-entry LT to about 68% for 8K LT", most visible for
 * the address-volatile suites (CAD, INT, JAV, MM).
 */

#include "bench/bench_util.hh"

namespace
{

using namespace clap;
using namespace clap::bench;

constexpr std::size_t ltSizes[] = {1024, 2048, 4096, 8192};

constexpr unsigned ltAssocs[] = {1, 2, 4};

std::vector<std::vector<SuiteStats>>
assocResults()
{
    const std::size_t len = defaultTraceLength();
    std::vector<std::vector<SuiteStats>> r;
    for (const unsigned assoc : ltAssocs) {
        PredictorFactory factory = [assoc] {
            HybridConfig config;
            config.cap.ltAssoc = assoc;
            return std::make_unique<HybridPredictor>(config);
        };
        r.push_back(sweepPerSuite(
            "lt_assoc" + std::to_string(assoc), factory, {}, len));
    }
    return r;
}

std::vector<std::vector<SuiteStats>>
results()
{
    const std::size_t len = defaultTraceLength();
    std::vector<std::vector<SuiteStats>> r;
    for (const auto entries : ltSizes) {
        PredictorFactory factory = [entries] {
            HybridConfig config;
            config.cap.ltEntries = entries;
            return std::make_unique<HybridPredictor>(config);
        };
        r.push_back(sweepPerSuite(
            "lt" + std::to_string(entries), factory, {}, len));
    }
    return r;
}

void
printResults()
{
    const auto r = results();
    Table table;
    table.row({"suite", "1K", "2K", "4K", "8K"});
    const std::size_t rows = r.front().size();
    for (std::size_t i = 0; i < rows; ++i) {
        table.newRow();
        table.cell(r.front()[i].suite);
        for (std::size_t c = 0; c < std::size(ltSizes); ++c)
            table.percent(r[c][i].stats.predictionRate());
    }
    printTable("Section 4.2: hybrid prediction rate vs LT entries",
               table);
    std::printf("\npaper (Average): ~63%% @ 1K rising to ~68%% @ 8K\n");

    Table assoc_table;
    assoc_table.row({"suite", "1-way", "2-way", "4-way"});
    const auto ar = assocResults();
    for (std::size_t i = 0; i < ar.front().size(); ++i) {
        assoc_table.newRow();
        assoc_table.cell(ar.front()[i].suite);
        for (std::size_t c = 0; c < std::size(ltAssocs); ++c)
            assoc_table.percent(ar[c][i].stats.predictionRate());
    }
    printTable("Section 4.2: hybrid prediction rate vs LT "
               "associativity (4K entries)",
               assoc_table);
    std::printf("\npaper: LT associativity has low impact (history "
                "distribution is quite even)\n");
}

} // namespace

int
main(int argc, char **argv)
{
    return clap::bench::benchMain("lt_sweep", argc, argv,
                                  printResults);
}
