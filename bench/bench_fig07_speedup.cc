/**
 * @file
 * Figure 7: per-trace processor speedup from address prediction
 * (enhanced stride and hybrid, immediate update) over the
 * no-address-prediction baseline, on the out-of-order timing model.
 *
 * Paper reference points: most traces land in the 10-25% range, ~21%
 * average; the hybrid is ~6.3% above the enhanced stride on average;
 * TPC and W95 gain least (LB contention); JAVA gains most (load-heavy
 * stack code).
 */

#include <map>

#include "bench/bench_util.hh"

namespace
{

using namespace clap;
using namespace clap::bench;

struct Fig7Results
{
    std::vector<SpeedupResult> stride;
    std::vector<SpeedupResult> hybrid;
};

Fig7Results
results()
{
    const std::size_t len = defaultTraceLength();
    const auto specs = buildCatalog();
    Fig7Results r;
    r.stride = sweepSpeedup("stride", specs, strideFactory(),
                            TimingConfig{}, len);
    r.hybrid = sweepSpeedup("hybrid", specs, hybridFactory(),
                            TimingConfig{}, len);
    return r;
}

double
averageSpeedup(const std::vector<SpeedupResult> &rows)
{
    std::vector<double> speedups;
    for (const auto &row : rows)
        speedups.push_back(row.speedup());
    return geomean(speedups);
}

void
printResults()
{
    const auto r = results();
    Table table;
    table.row({"trace", "stride_speedup", "hybrid_speedup"});
    std::map<std::string, std::vector<double>> per_suite_stride;
    std::map<std::string, std::vector<double>> per_suite_hybrid;
    for (std::size_t i = 0; i < r.stride.size(); ++i) {
        table.newRow();
        table.cell(r.stride[i].trace);
        table.cell(r.stride[i].speedup(), 3);
        table.cell(r.hybrid[i].speedup(), 3);
        per_suite_stride[r.stride[i].suite].push_back(
            r.stride[i].speedup());
        per_suite_hybrid[r.hybrid[i].suite].push_back(
            r.hybrid[i].speedup());
    }
    printTable("Figure 7: per-trace speedup over no address "
               "prediction (immediate update)",
               table);

    Table summary;
    summary.row({"suite", "stride_speedup", "hybrid_speedup"});
    for (const auto &[suite, values] : per_suite_stride) {
        summary.newRow();
        summary.cell(suite);
        summary.cell(geomean(values), 3);
        summary.cell(geomean(per_suite_hybrid[suite]), 3);
    }
    summary.newRow();
    summary.cell(std::string("Average"));
    summary.cell(averageSpeedup(r.stride), 3);
    summary.cell(averageSpeedup(r.hybrid), 3);
    printTable("Figure 7 summary (geometric mean per suite)", summary);
    std::printf("\npaper: most traces 1.10-1.25x, average ~1.21x for "
                "the hybrid, ~6.3%% above enhanced stride; TPC/W95 "
                "lowest, JAVA highest\n");
}

} // namespace

int
main(int argc, char **argv)
{
    return clap::bench::benchMain("fig07_speedup", argc, argv,
                                  printResults);
}
