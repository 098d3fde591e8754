/**
 * @file
 * Replay-loop throughput harness for the perf work that is not a
 * paper figure: the shared trace store, the ring-buffered pending
 * queue, the single-lookup LoadBuffer handle path, and the
 * struct-of-arrays probe lanes. Each predictor family replays one
 * representative trace per suite (INT, MM, TPC, NT) through
 * runPredictorSim; the harness repeats the whole replay --reps times
 * after --warmup discarded passes and reports min/median/mean ns per
 * load for each predictor.
 *
 * Output split (EXPERIMENTS.md):
 *  - BENCH_hotpath.json (the shared bench JSON) carries only the
 *    deterministic workload table (records/loads per predictor) so
 *    the file stays byte-identical across runs of the same build and
 *    trace budget.
 *  - BENCH_hotpath.perf.json (--perf-out) carries the wall-clock
 *    numbers; scripts/perf_gate.py compares its medians against the
 *    committed BENCH_hotpath.baseline.json in CI.
 *
 * Environment knobs (besides the shared bench/sweep flags):
 *   CLAP_TRACE_INSTS  per-trace instruction budget (suites.hh)
 *
 * Harness-specific flags (besides the shared bench/sweep flags):
 *   --reps=N      timed replay passes per predictor (default 5)
 *   --warmup=N    discarded leading passes (default 1)
 *   --perf-out=PATH  timing JSON path (default BENCH_hotpath.perf.json)
 *   --no-perf-json   skip writing the timing JSON
 */

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "sim/predictor_sim.hh"
#include "workloads/composer.hh"

namespace
{

using namespace clap;
using namespace clap::bench;

unsigned g_reps = 5;
unsigned g_warmup = 1;
std::string g_perfOut = "BENCH_hotpath.perf.json";
bool g_noPerfJson = false;

/// One representative trace per behavioural family (same mix the
/// serve bench replays).
std::vector<TraceSpec>
representativeSpecs()
{
    std::vector<TraceSpec> specs;
    for (const char *suite : {"INT", "MM", "TPC", "NT"})
        specs.push_back(buildSuite(suite).front());
    return specs;
}

double
medianOf(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    if (n == 0)
        return 0.0;
    return n % 2 == 1 ? values[n / 2]
                      : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

double
meanOf(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

struct HotpathRow
{
    std::string predictor;
    std::uint64_t records = 0; ///< per pass (deterministic)
    std::uint64_t loads = 0;   ///< per pass (deterministic)
    std::vector<double> repNs; ///< ns/load of each timed pass

    double minNs() const
    {
        return repNs.empty()
            ? 0.0
            : *std::min_element(repNs.begin(), repNs.end());
    }
    double medianNs() const { return medianOf(repNs); }
    double meanNs() const { return meanOf(repNs); }
};

/** One full replay pass (all traces, fresh predictor per trace).
 *  Returns the pass's ns/load and accumulates the workload shape. */
double
replayPass(const PredictorFactory &factory,
           const std::vector<std::shared_ptr<const Trace>> &traces,
           std::uint64_t &records, std::uint64_t &loads)
{
    records = 0;
    loads = 0;
    double elapsed = 0.0;
    for (const auto &trace : traces) {
        auto predictor = factory();
        const auto begin = std::chrono::steady_clock::now();
        const PredictionStats stats =
            runPredictorSim(*trace, *predictor, {});
        const auto end = std::chrono::steady_clock::now();
        records += trace->records().size();
        loads += stats.loads;
        elapsed += std::chrono::duration<double>(end - begin).count();
    }
    return loads == 0 ? 0.0
                      : elapsed * 1e9 / static_cast<double>(loads);
}

HotpathRow
measure(const std::string &name, const PredictorFactory &factory,
        const std::vector<std::shared_ptr<const Trace>> &traces)
{
    HotpathRow row;
    row.predictor = name;
    for (unsigned rep = 0; rep < g_warmup + g_reps; ++rep) {
        std::uint64_t records = 0;
        std::uint64_t loads = 0;
        const double ns = replayPass(factory, traces, records, loads);
        row.records = records;
        row.loads = loads;
        if (rep >= g_warmup)
            row.repNs.push_back(ns);
    }
    return row;
}

std::vector<HotpathRow>
results()
{
    // Pre-fetch through the store so generation time (shared with
    // every other harness in a batched run) stays out of the
    // replay measurement.
    std::vector<std::shared_ptr<const Trace>> traces;
    for (const auto &spec : representativeSpecs())
        traces.push_back(globalTraceStore().get(spec, defaultTraceLength()));

    return {measure("last", lastAddressFactory(), traces),
            measure("stride", strideFactory(), traces),
            measure("cap", capFactory(), traces),
            measure("hybrid", hybridFactory(), traces)};
}

std::string
perfJson(const std::vector<HotpathRow> &rows)
{
    char buf[64];
    auto num = [&buf](double value) {
        std::snprintf(buf, sizeof(buf), "%.3f", value);
        return std::string(buf);
    };
    std::string json = "{\n  \"bench\": \"hotpath\",\n";
    json += "  \"reps\": " + std::to_string(g_reps) + ",\n";
    json += "  \"warmup\": " + std::to_string(g_warmup) + ",\n";
    json += "  \"predictors\": [";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const HotpathRow &row = rows[i];
        if (i != 0)
            json += ',';
        json += "\n    {\"name\": \"" + jsonEscape(row.predictor) +
            "\", \"records\": " + std::to_string(row.records) +
            ", \"loads\": " + std::to_string(row.loads) +
            ", \"ns_per_load\": {\"min\": " + num(row.minNs()) +
            ", \"median\": " + num(row.medianNs()) +
            ", \"mean\": " + num(row.meanNs()) + "}}";
    }
    json += "\n  ]\n}\n";
    return json;
}

void
printResults()
{
    const std::vector<HotpathRow> rows = results();

    // Deterministic workload-shape table: the only table registered
    // for BENCH_hotpath.json, which must stay byte-identical across
    // runs (fixed build + trace budget).
    Table shape;
    shape.row({"predictor", "records", "loads"});
    for (const HotpathRow &row : rows) {
        shape.newRow();
        shape.cell(row.predictor);
        shape.cell(row.records);
        shape.cell(row.loads);
    }
    printTable("Replay workload per predictor (deterministic)", shape);

    // Timing table: stdout only, never registered (run-dependent).
    Table timing;
    timing.row({"predictor", "reps", "min ns/load", "median ns/load",
                "mean ns/load"});
    for (const HotpathRow &row : rows) {
        timing.newRow();
        timing.cell(row.predictor);
        timing.cell(static_cast<std::uint64_t>(row.repNs.size()));
        timing.cell(row.minNs(), 1);
        timing.cell(row.medianNs(), 1);
        timing.cell(row.meanNs(), 1);
    }
    std::printf("\n=== Replay-loop ns/load (wall-clock; %u warmup + %u "
                "timed passes; stdout + perf JSON only) ===\n",
                g_warmup, g_reps);
    timing.print(std::cout);
    std::fflush(stdout);

    if (!g_noPerfJson) {
        if (auto written = writeFileAtomic(g_perfOut, perfJson(rows));
            !written) {
            std::fprintf(stderr, "cannot write %s: %s\n",
                         g_perfOut.c_str(),
                         written.error().str().c_str());
            std::exit(1);
        }
        std::printf("\nperf JSON: wrote %s (gated by "
                    "scripts/perf_gate.py against "
                    "BENCH_hotpath.baseline.json)\n",
                    g_perfOut.c_str());
    }
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace clap::bench;
    return benchMain("hotpath", argc, argv, printResults,
                     {numberFlag("--reps", g_reps, 1),
                      numberFlag("--warmup", g_warmup, 0),
                      pathFlag("--perf-out", g_perfOut),
                      switchFlag("--no-perf-json", g_noPerfJson)});
}
