/**
 * @file
 * Figure 10: influence of LT tags and control-flow (path)
 * indications on the stand-alone CAP predictor: prediction rate and
 * misprediction rate for {no tag, 4-bit tag, 8-bit tag, 4-bit+path,
 * 8-bit+path}.
 *
 * Paper reference points: no-tag = 64.2% rate at 3.3% misprediction;
 * 4-bit tags cut mispredictions 57% while losing only ~2% of
 * predictions; 8-bit tags cut another 26%; path bits cut a further
 * 39%/33% (to 0.9%/0.7%). Also section 4.5 in-text: raising the
 * history length to 6 only cuts mispredictions ~6% (tags dominate),
 * reproduced as the last row.
 */

#include "bench/bench_util.hh"

namespace
{

using namespace clap;
using namespace clap::bench;

struct ConfidenceConfig
{
    const char *label;
    unsigned tagBits;
    unsigned pathBits;
    unsigned historyLength;
};

constexpr ConfidenceConfig configs[] = {
    {"no tag", 0, 0, 4},        {"4b tag", 4, 0, 4},
    {"8b tag", 8, 0, 4},        {"4b tag + path", 4, 4, 4},
    {"8b tag + path", 8, 4, 4}, {"8b tag, hist 6", 8, 0, 6},
};

std::vector<PredictionStats>
results()
{
    const std::size_t len = defaultTraceLength();
    std::vector<PredictionStats> r;
    for (const auto &cfg : configs) {
        PredictorFactory factory = [&cfg] {
            CapPredictorConfig config;
            config.cap.ltTagBits = cfg.tagBits;
            config.cap.pathBits = cfg.pathBits;
            config.cap.historyLength = cfg.historyLength;
            return std::make_unique<CapPredictor>(config);
        };
        r.push_back(sweepPerSuite(cfg.label, factory, {}, len).back().stats);
    }
    return r;
}

void
printResults()
{
    Table table;
    table.row({"config", "pred_rate", "mispred_rate",
               "mispred_vs_no_tag"});
    const std::vector<PredictionStats> r = results();
    const double base = r[0].mispredictionRate();
    for (std::size_t c = 0; c < std::size(configs); ++c) {
        const auto &stats = r[c];
        table.newRow();
        table.cell(configs[c].label);
        table.percent(stats.predictionRate());
        table.percent(stats.mispredictionRate(), 2);
        if (base > 0) {
            table.percent(
                (stats.mispredictionRate() - base) / base, 0);
        } else {
            table.cell(std::string("-"));
        }
    }
    printTable("Figure 10: CAP prediction/misprediction rate vs LT "
               "tags and path indications",
               table);
    std::printf("\npaper: no-tag 64.2%%/3.3%%; 4b tag -57%% mispred; "
                "8b tag -26%% more; +path -39%%/-33%% further (0.9%%/"
                "0.7%%); history 6 alone only -6%%\n");
}

} // namespace

int
main(int argc, char **argv)
{
    return clap::bench::benchMain("fig10_confidence", argc, argv,
                                  printResults);
}
