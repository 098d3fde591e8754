/**
 * @file
 * Figure 12: per-suite speedup of the enhanced stride and hybrid
 * predictors for the immediate-update model vs a prediction gap of 8
 * cycles, on the out-of-order timing model.
 *
 * Paper reference points: the speedup decreases for most suites but
 * remains significant — hybrid average drops from ~21% (immediate)
 * to ~14.1% at gap 8, staying ~3.9% above the enhanced stride.
 */

#include <map>

#include "bench/bench_util.hh"

namespace
{

using namespace clap;
using namespace clap::bench;

struct Fig12Results
{
    // [predictor][gapIdx] -> per-trace speedups
    std::vector<SpeedupResult> strideImm;
    std::vector<SpeedupResult> strideGap;
    std::vector<SpeedupResult> hybridImm;
    std::vector<SpeedupResult> hybridGap;
};

Fig12Results
results()
{
    const std::size_t len = defaultTraceLength();
    const auto specs = buildCatalog();
    TimingConfig immediate;
    TimingConfig gapped;
    gapped.predictorGap.gapCycles = 8;

    Fig12Results r;
    r.strideImm = sweepSpeedup("stride_imm", specs,
                               strideFactory(false), immediate,
                               len);
    r.strideGap = sweepSpeedup("stride_gap8", specs,
                               strideFactory(true), gapped, len);
    r.hybridImm = sweepSpeedup("hybrid_imm", specs,
                               hybridFactory(false), immediate,
                               len);
    r.hybridGap = sweepSpeedup("hybrid_gap8", specs,
                               hybridFactory(true), gapped, len);
    return r;
}

std::map<std::string, double>
perSuiteGeomean(const std::vector<SpeedupResult> &rows)
{
    std::map<std::string, std::vector<double>> per_suite;
    std::vector<double> all;
    for (const auto &row : rows) {
        per_suite[row.suite].push_back(row.speedup());
        all.push_back(row.speedup());
    }
    std::map<std::string, double> out;
    for (const auto &[suite, values] : per_suite)
        out[suite] = geomean(values);
    out["Average"] = geomean(all);
    return out;
}

void
printResults()
{
    const auto r = results();
    const auto stride_imm = perSuiteGeomean(r.strideImm);
    const auto stride_gap = perSuiteGeomean(r.strideGap);
    const auto hybrid_imm = perSuiteGeomean(r.hybridImm);
    const auto hybrid_gap = perSuiteGeomean(r.hybridGap);

    Table table;
    table.row({"suite", "stride_imm", "stride_gap8", "hybrid_imm",
               "hybrid_gap8"});
    auto add_row = [&](const std::string &suite) {
        table.newRow();
        table.cell(suite);
        table.cell(stride_imm.at(suite), 3);
        table.cell(stride_gap.at(suite), 3);
        table.cell(hybrid_imm.at(suite), 3);
        table.cell(hybrid_gap.at(suite), 3);
    };
    for (const auto &suite : suiteNames())
        add_row(suite);
    add_row("Average");
    printTable("Figure 12: per-suite speedup, immediate vs prediction "
               "gap 8",
               table);
    std::printf("\npaper: hybrid average ~1.21x immediate -> ~1.141x "
                "at gap 8, ~3.9%% above enhanced stride\n");
}

} // namespace

int
main(int argc, char **argv)
{
    return clap::bench::benchMain("fig12_speedup_gap", argc, argv,
                                  printResults);
}
