#include <bit>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "core/cap_predictor.hh"
#include "core/hybrid_predictor.hh"
#include "core/stride_predictor.hh"
#include "ladder.hh"
#include "net/client.hh"
#include "sim/predictor_sim.hh"
#include "sim/timing_sim.hh"
#include "timed_predictor.hh"
#include "trace/trace_store.hh"
#include "util/bits.hh"
#include "util/json.hh"
#include "workloads/suites.hh"

namespace clap::ladder
{

namespace
{

std::string
fixed(double value, int digits = 1)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
    return buf;
}

} // namespace

TraceSpec
seeded(TraceSpec spec, std::uint64_t seed)
{
    spec.seed = mix64(spec.seed ^ (seed * 0x9e3779b97f4a7c15ull));
    return spec;
}

std::vector<TraceSpec>
suiteHeads(const std::vector<std::string> &suites, std::uint64_t seed)
{
    std::vector<TraceSpec> specs;
    for (const std::string &suite : suites)
        specs.push_back(seeded(buildSuite(suite).front(), seed));
    return specs;
}

std::vector<std::shared_ptr<const Trace>>
generateTraces(const std::vector<TraceSpec> &specs, std::size_t len,
               TraceCost &cost)
{
    std::vector<std::shared_ptr<const Trace>> traces;
    for (const TraceSpec &spec : specs) {
        const auto begin = Clock::now();
        auto trace = std::make_shared<const Trace>(generateTrace(spec, len));
        cost.ns += secondsSince(begin) * 1e9;
        cost.records += trace->size();
        cost.bytes += traceBytes(*trace);
        traces.push_back(std::move(trace));
    }
    return traces;
}

void
reportSetup(Report &report, const std::vector<double> &setup_s)
{
    std::string line = "set-up times (s):";
    for (double s : setup_s)
        line += ' ' + fixed(s, 4);
    report.note(line);
    report.set("setup_s", median(setup_s));
}

void
reportTraceCost(Report &report, const TraceCost &cost)
{
    if (cost.records == 0)
        return;
    const double records = static_cast<double>(cost.records);
    report.set("trace.generate_ns_per_record", cost.ns / records);
    report.set("trace.bytes_per_record",
               static_cast<double>(cost.bytes) / records);
}

void
probeLayers(Report &report, const Trace &trace)
{
    auto replay = [&](AddressPredictor &predictor, const char *metric) {
        const auto begin = Clock::now();
        const PredictionStats stats = runPredictorSim(trace, predictor);
        report.set(metric, secondsSince(begin) * 1e9 /
                               static_cast<double>(stats.loads));
        return stats;
    };
    StridePredictor stride(StridePredictorConfig{});
    replay(stride, "sim.predictor_ns_per_load.stride");
    CapPredictor cap(CapPredictorConfig{});
    replay(cap, "sim.predictor_ns_per_load.cap");
    TimedPredictor hybrid(std::make_unique<HybridPredictor>(HybridConfig{}),
                          /*sample_period=*/64);
    const PredictionStats stats =
        replay(hybrid, "sim.predictor_ns_per_load.hybrid");
    report.set("sim.spec_rate", stats.predictionRate());
    report.set("sim.spec_accuracy", stats.accuracy());
    for (int i = 0; i < 5; ++i) {
        if (auto audited = hybrid.audit(); !audited)
            report.fail("audit of the warmed hybrid: " +
                        audited.error().str());
    }
    reportCoreSamples(report, hybrid.life());

    const TimingResult base = runTimingSim(trace, TimingConfig{}, nullptr);
    HybridPredictor timed(HybridConfig{});
    const auto begin = Clock::now();
    const TimingResult predicted = runTimingSim(trace, TimingConfig{}, &timed);
    report.set("sim.timing_ns_per_inst",
               secondsSince(begin) * 1e9 /
                   static_cast<double>(predicted.insts));
    report.set("sim.speedup", static_cast<double>(base.cycles) /
                                  static_cast<double>(predicted.cycles));
}

void
reportCoreSamples(Report &report, const Lifetime &samples)
{
    auto mean = [](double total, std::uint64_t n) {
        return n == 0 ? 0.0 : total / static_cast<double>(n);
    };
    report.set("core.predict_ns",
               mean(samples.predictNs, samples.predictSamples));
    report.set("core.update_ns",
               mean(samples.updateNs, samples.updateSamples));
    report.set("core.audit_us", mean(samples.auditNs, samples.audits) / 1e3);
}

double
peakRssMib(int pid)
{
    std::ifstream status(pid == 0 ? std::string("/proc/self/status")
                                  : "/proc/" + std::to_string(pid) +
                                        "/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream fields(line.substr(6));
            double kib = 0.0;
            fields >> kib;
            return kib / 1024.0;
        }
    }
    return 0.0;
}

std::uint32_t
sampleNs(std::int64_t ns)
{
    return static_cast<std::uint32_t>(
        std::clamp<std::int64_t>(ns, 0, UINT32_MAX));
}

namespace
{

std::uint64_t
totalPairs(const Tallies &tallies)
{
    std::uint64_t total = 0;
    for (const auto &tally : tallies)
        total += tally->pairs.load(std::memory_order_relaxed);
    return total;
}

} // namespace

std::uint64_t
stealTicks()
{
    // "cpu  user nice system idle iowait irq softirq steal ..."
    std::ifstream stat("/proc/stat");
    std::string cpu;
    std::uint64_t fields[8] = {};
    stat >> cpu;
    for (std::uint64_t &field : fields)
        stat >> field;
    return stat ? fields[7] : 0;
}

WindowSeconds
runWindow(Window &window, const Tallies &tallies,
          const std::function<void()> &on_traced)
{
    using Seconds = std::chrono::duration<double>;

    setStage("warm-up");
    std::this_thread::sleep_for(Seconds(kWarmupSeconds));

    setStage("measure");
    WindowSeconds out;
    const auto window_start = Clock::now();
    auto last_time = window_start;
    std::uint64_t last_pairs = totalPairs(tallies);
    std::uint64_t last_steal = stealTicks();
    for (int s = 0; s < window.seconds; ++s) {
        if (s == window.tracedFrom) {
            setStage("measure (traced)");
            on_traced();
            last_time = Clock::now();
            last_pairs = totalPairs(tallies);
        }
        window.second.store(s);
        std::this_thread::sleep_until(
            window_start + std::chrono::seconds(s + 1));
        const auto now = Clock::now();
        const std::uint64_t pairs = totalPairs(tallies);
        const std::uint64_t steal = stealTicks();
        out.rates.push_back(static_cast<double>(pairs - last_pairs) /
                            Seconds(now - last_time).count());
        out.steal.push_back(steal - last_steal);
        noteAttempted(2 * pairs);
        last_time = now;
        last_pairs = pairs;
        last_steal = steal;
    }
    window.second.store(Window::kStop);
    setStage("drain");
    return out;
}

std::vector<double>
poolUs(const Tallies &tallies,
       const std::function<const std::vector<std::uint32_t> &(
           const ClientTally &)> &pick)
{
    std::vector<double> out;
    for (const auto &tally : tallies)
        for (std::uint32_t ns : pick(*tally))
            out.push_back(ns / 1000.0);
    return out;
}

std::vector<double>
poolPredictUs(const Tallies &tallies, int first, int last)
{
    std::vector<double> out;
    for (int s = first; s < last; ++s) {
        const std::vector<double> second = poolUs(
            tallies, [s](const ClientTally &t) -> const auto & {
                return t.predictNs[s];
            });
        out.insert(out.end(), second.begin(), second.end());
    }
    return out;
}

LatencySummary
summarizeUs(Report &report, const std::string &name,
            std::vector<double> samples_us)
{
    const LatencySummary s = summarize(std::move(samples_us));
    std::string line = name;
    line += " n=" + std::to_string(s.samples);
    line += " p50=" + fixed(s.p50) + " p90=" + fixed(s.p90) +
        " p99=" + fixed(s.p99);
    if (s.deepQ > 0.0)
        line += " p" + fixed(s.deepQ * 100.0, 3) + "=" + fixed(s.deepValue);
    else
        line += " (too few samples for a deep percentile)";
    line += " max=" + fixed(s.max) + " us";
    report.note(line);
    return s;
}

void
reportWindow(Report &report, const Window &window,
             const WindowSeconds &seconds, const Tallies &tallies)
{
    for (const auto &tally : tallies) {
        report.attempted += tally->attempted;
        report.failed += tally->failed;
    }

    // Each half (untraced, traced) keeps its own quiet seconds.
    std::vector<bool> keep;
    for (auto [first, last] : {std::pair{0, window.tracedFrom},
                               std::pair{window.tracedFrom, window.seconds}}) {
        const std::vector<bool> half = quietIntervals(
            std::vector<double>(seconds.steal.begin() + first,
                                seconds.steal.begin() + last));
        keep.insert(keep.end(), half.begin(), half.end());
    }

    std::string rate_line = "pairs/s per second:";
    std::string p50_line = "latency p50 per second (us):";
    std::string p90_line = "latency p90 per second (us):";
    std::string p99_line = "latency p99 per second (us):";
    std::string steal_line =
        "hypervisor steal ticks per second (* = left out):";
    std::array<std::vector<double>, 2> rates;
    std::vector<double> p50s;
    std::vector<double> p90s;
    for (int s = 0; s < window.seconds; ++s) {
        const bool traced = s >= window.tracedFrom;
        const char *mark = traced ? "t" : "";
        const LatencySummary second =
            summarize(poolPredictUs(tallies, s, s + 1));
        rate_line += ' ' + fixed(seconds.rates[s], 0) + mark;
        p50_line += ' ' + fixed(second.p50) + mark;
        p90_line += ' ' + fixed(second.p90) + mark;
        p99_line += ' ' + fixed(second.p99) + mark;
        steal_line += ' ' + std::to_string(seconds.steal[s]);
        steal_line += keep[s] ? "" : "*";
        if (!keep[s])
            continue;
        rates[traced].push_back(seconds.rates[s]);
        if (!traced) {
            p50s.push_back(second.p50);
            p90s.push_back(second.p90);
        }
    }
    report.note(rate_line);
    report.note(p50_line);
    report.note(p90_line);
    report.note(p99_line);
    report.note(steal_line);

    const double untraced = median(rates[0]);
    report.set("throughput_loads_per_s", untraced);
    report.set("latency_p50_us", median(p50s));
    report.set("latency_p90_us", median(p90s));
    summarizeUs(report, "latency_us (pooled)",
                poolPredictUs(tallies, 0, window.tracedFrom));
    if (window.tracedFrom == window.seconds)
        return;
    summarizeUs(report, "latency_us (pooled, traced half)",
                poolPredictUs(tallies, window.tracedFrom, window.seconds));
    if (untraced > 0.0)
        report.set("obs.trace_overhead", median(rates[1]) / untraced);
}

/* ------------------------------------------------------------------ */
/* Registry scrapes                                                   */
/* ------------------------------------------------------------------ */

void
Scrape::add(const Scrape &other)
{
    for (const auto &[name, value] : other.counters)
        counters[name] += value;
    for (const auto &[name, hist] : other.histograms) {
        obs::HistogramSnapshot &mine = histograms[name];
        for (std::size_t b = 0; b < mine.buckets.size(); ++b)
            mine.buckets[b] += hist.buckets[b];
        mine.count += hist.count;
        mine.sum += hist.sum;
    }
}

Scrape
Scrape::since(const Scrape &before) const
{
    auto minus = [](std::uint64_t a, std::uint64_t b) {
        return a >= b ? a - b : 0;
    };
    Scrape delta = *this;
    for (auto &[name, value] : delta.counters)
        value = minus(value, before.counter(name));
    for (auto &[name, hist] : delta.histograms) {
        const obs::HistogramSnapshot &old = before.histogram(name);
        for (std::size_t b = 0; b < hist.buckets.size(); ++b)
            hist.buckets[b] = minus(hist.buckets[b], old.buckets[b]);
        hist.count = minus(hist.count, old.count);
        hist.sum = minus(hist.sum, old.sum);
    }
    return delta;
}

std::uint64_t
Scrape::counter(const std::string &name) const
{
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
}

const obs::HistogramSnapshot &
Scrape::histogram(const std::string &name) const
{
    static const obs::HistogramSnapshot empty;
    auto it = histograms.find(name);
    return it == histograms.end() ? empty : it->second;
}

Scrape
scrapeLocal()
{
    const obs::MetricsSnapshot snap = obs::snapshotMetrics();
    Scrape out;
    for (const auto &[name, value] : snap.counters)
        out.counters[name] = value;
    for (const auto &[name, hist] : snap.histograms)
        out.histograms[name] = hist;
    return out;
}

namespace
{

/** Rebuild a histogram from its scrape rendering (lower bound of each
 *  non-empty log2 bucket plus its count). */
obs::HistogramSnapshot
histogramFromJson(const JsonValue &json)
{
    obs::HistogramSnapshot hist;
    if (const JsonValue *buckets = json.find("buckets")) {
        for (const JsonValue &bucket : buckets->items) {
            if (bucket.items.size() != 2)
                continue;
            const std::size_t b = static_cast<std::size_t>(
                std::bit_width(bucket.items[0].uintValue));
            if (b < hist.buckets.size()) {
                hist.buckets[b] += bucket.items[1].uintValue;
                hist.count += bucket.items[1].uintValue;
            }
        }
    }
    hist.sum = json.uintOr("sum", 0);
    return hist;
}

} // namespace

Scrape
scrapeRemote(net::NetClient &admin, Report &report)
{
    Scrape out;
    auto doc = admin.fetchObs(/*include_timing=*/true);
    if (!doc) {
        report.note("scrape failed: " + doc.error().str());
        return out;
    }
    auto parsed = parseJson(*doc);
    if (!parsed) {
        report.note("scrape did not parse: " + parsed.error().str());
        return out;
    }
    const JsonValue *metrics = parsed->find("metrics");
    if (metrics != nullptr) {
        if (const JsonValue *counters = metrics->find("counters"))
            for (const auto &[name, value] : counters->members)
                out.counters[name] = value.uintValue;
        if (const JsonValue *hists = metrics->find("histograms"))
            for (const auto &[name, value] : hists->members)
                out.histograms[name] = histogramFromJson(value);
    }
    if (const JsonValue *timing = parsed->find("timing"))
        for (const auto &[name, value] : timing->members)
            out.histograms[name] = histogramFromJson(value);
    return out;
}

namespace
{

/** Σ of a timing histogram's values (exact, unlike its quantiles). */
double
sumNs(const Scrape &scrape, const std::string &name)
{
    return static_cast<double>(scrape.histogram(name).sum);
}

double
p99Us(const Scrape &scrape, const std::string &name)
{
    return scrape.histogram(name).p99() / 1e3;
}

} // namespace

void
reportServeRegistry(Report &report, const Scrape &delta)
{
    const double loads =
        static_cast<double>(delta.counter("serve.trains"));
    if (loads > 0.0)
        report.set("serve.batches_per_load",
                   static_cast<double>(delta.counter("serve.batches")) /
                       loads);
    report.set("serve.mean_batch_size",
               delta.histogram("serve.batch_size").mean());
    // The deepest depth bucket seen, as its upper bound (the registry
    // keeps log2 buckets, not the exact high-water mark).
    const obs::HistogramSnapshot &depth =
        delta.histogram("serve.queue_depth");
    for (std::size_t b = depth.buckets.size(); b-- > 0;) {
        if (depth.buckets[b] != 0) {
            report.set("serve.max_queue_depth",
                       static_cast<double>(
                           obs::HistogramSnapshot::upperBound(b)));
            break;
        }
    }
    const double wait = sumNs(delta, "serve.stage.queue_wait_ns");
    const double compute = sumNs(delta, "serve.stage.compute_ns");
    if (wait + compute > 0.0)
        report.set("serve.queue_wait_share", wait / (wait + compute));
    report.note("serve.stage p99 (us, log2-bucket estimate): queue_wait=" +
                fixed(p99Us(delta, "serve.stage.queue_wait_ns")) +
                " compute=" +
                fixed(p99Us(delta, "serve.stage.compute_ns"), 2));
}

void
reportNetStages(Report &report, const Scrape &delta)
{
    // The stage timers sum exactly to net.stage.total_ns, so the
    // shares of the total add up to 1.
    const double total = sumNs(delta, "net.stage.total_ns");
    std::string line = "net.stage p99 (us, log2-bucket estimate):";
    for (const char *stage : {"decode", "handle", "encode", "residual"}) {
        const std::string name = std::string("net.stage.") + stage + "_ns";
        if (total > 0.0)
            report.set(std::string("net.stage.") + stage + "_share",
                       sumNs(delta, name) / total);
        line += ' ';
        line += stage;
        line += '=';
        line += fixed(p99Us(delta, name), 2);
    }
    report.note(line);
    report.set("net.shed",
               static_cast<double>(delta.counter("net.admit.shed")));
    report.set("net.rejected",
               static_cast<double>(delta.counter("net.admit.rejected")));
}

} // namespace clap::ladder
