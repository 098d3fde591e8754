/**
 * @file
 * Section 4.3: link-table update policies — update always, update
 * unless the stride component predicted correctly, update unless the
 * stride component predicted correctly AND was selected.
 *
 * Paper reference point: "surprisingly enough, the update always
 * option results in slightly better prediction results on almost all
 * traces" (unstable stride-like inner loops keep their links only if
 * always recorded); selective policies mainly save LT space.
 */

#include "bench/bench_util.hh"

namespace
{

using namespace clap;
using namespace clap::bench;

struct PolicyConfig
{
    const char *label;
    LtUpdatePolicy policy;
};

constexpr PolicyConfig policies[] = {
    {"always", LtUpdatePolicy::Always},
    {"unless-stride-correct", LtUpdatePolicy::UnlessStrideCorrect},
    {"unless-stride-selected", LtUpdatePolicy::UnlessStrideSelected},
};

std::vector<std::vector<SuiteStats>>
results()
{
    const std::size_t len = defaultTraceLength();
    std::vector<std::vector<SuiteStats>> r;
    for (const auto &policy : policies) {
        PredictorFactory factory = [&policy] {
            HybridConfig config;
            config.ltUpdatePolicy = policy.policy;
            return std::make_unique<HybridPredictor>(config);
        };
        r.push_back(
            sweepPerSuite(policy.label, factory, {}, len));
    }
    return r;
}

void
printResults()
{
    const auto r = results();
    Table table;
    table.row({"suite", "always", "unless-correct", "unless-selected"});
    const std::size_t rows = r.front().size();
    for (std::size_t i = 0; i < rows; ++i) {
        table.newRow();
        table.cell(r.front()[i].suite);
        for (std::size_t p = 0; p < std::size(policies); ++p)
            table.percent(r[p][i].stats.predictionRate());
    }
    printTable("Section 4.3: hybrid prediction rate per LT update "
               "policy",
               table);
    std::printf("\npaper: 'update always' slightly best on almost all "
                "traces\n");
}

} // namespace

int
main(int argc, char **argv)
{
    return clap::bench::benchMain("lt_update_policy", argc, argv,
                                  printResults);
}
