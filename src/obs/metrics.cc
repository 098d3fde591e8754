#include "obs/metrics.hh"

#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>

#include "util/json.hh"

namespace clap::obs
{

bool
metricsEnabled()
{
    static const bool enabled = [] {
        const char *env = std::getenv("CLAP_METRICS");
        if (env == nullptr || *env == '\0')
            return true;
        return !(std::strcmp(env, "0") == 0 ||
                 std::strcmp(env, "off") == 0 ||
                 std::strcmp(env, "false") == 0);
    }();
    return enabled;
}

double
HistogramSnapshot::quantile(double q) const
{
    if (count == 0)
        return 0.0;
    if (q < 0.0)
        q = 0.0;
    if (q > 1.0)
        q = 1.0;
    // The target rank in (0, count]: the value below which a fraction
    // q of the recorded mass falls. Linear interpolation inside the
    // containing bucket treats the bucket's mass as uniformly spread
    // over [lowerBound, upperBound].
    const double target = q * static_cast<double>(count);
    double cumulative = 0.0;
    for (std::size_t b = 0; b < buckets.size(); ++b) {
        if (buckets[b] == 0)
            continue;
        const double mass = static_cast<double>(buckets[b]);
        if (cumulative + mass >= target) {
            const double lo = static_cast<double>(lowerBound(b));
            const double hi = static_cast<double>(upperBound(b));
            const double frac = (target - cumulative) / mass;
            return lo + frac * (hi - lo);
        }
        cumulative += mass;
    }
    // Rounding left us past the last bucket: the maximum seen bound.
    for (std::size_t b = buckets.size(); b-- > 0;) {
        if (buckets[b] != 0)
            return static_cast<double>(upperBound(b));
    }
    return 0.0;
}

namespace detail
{

unsigned
stripeIndex()
{
    static std::atomic<unsigned> next{0};
    thread_local const unsigned index =
        next.fetch_add(1, std::memory_order_relaxed) & (kStripes - 1);
    return index;
}

} // namespace detail

namespace
{

/**
 * Name-keyed instrument maps. std::map keeps snapshot ordering
 * deterministic; instruments are held by unique_ptr so references
 * handed out stay stable across rehashing-free map growth. The mutex
 * guards registration and snapshot iteration only — record paths
 * touch the instruments directly.
 */
struct Registry
{
    std::mutex mutex;
    std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters;
    std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges;
    std::map<std::string, std::unique_ptr<Histogram>, std::less<>>
        histograms;

    static Registry &
    instance()
    {
        static Registry registry;
        return registry;
    }
};

template <typename Map, typename Instrument = typename Map::mapped_type::element_type>
Instrument &
findOrCreate(Map &map, std::mutex &mutex, std::string_view name)
{
    std::lock_guard<std::mutex> lock(mutex);
    auto found = map.find(name);
    if (found == map.end()) {
        found = map.emplace(std::string(name),
                            std::make_unique<Instrument>())
                    .first;
    }
    return *found->second;
}

void
appendHistogramJson(std::string &json, const HistogramSnapshot &snap)
{
    json += "{\"count\": " + std::to_string(snap.count);
    json += ", \"sum\": " + std::to_string(snap.sum);
    json += ", \"buckets\": [";
    // Sparse rendering: [bucket-low, count] pairs for non-empty
    // buckets keeps the document small and round-trippable.
    bool first = true;
    for (std::size_t b = 0; b < snap.buckets.size(); ++b) {
        if (snap.buckets[b] == 0)
            continue;
        if (!first)
            json += ", ";
        first = false;
        json += "[" +
            std::to_string(HistogramSnapshot::lowerBound(b)) + ", " +
            std::to_string(snap.buckets[b]) + "]";
    }
    json += "]}";
}

} // namespace

Counter &
counter(std::string_view name)
{
    Registry &reg = Registry::instance();
    return findOrCreate(reg.counters, reg.mutex, name);
}

Gauge &
gauge(std::string_view name)
{
    Registry &reg = Registry::instance();
    return findOrCreate(reg.gauges, reg.mutex, name);
}

Histogram &
histogram(std::string_view name)
{
    Registry &reg = Registry::instance();
    return findOrCreate(reg.histograms, reg.mutex, name);
}

MetricsSnapshot
snapshotMetrics()
{
    Registry &reg = Registry::instance();
    MetricsSnapshot snap;
    std::lock_guard<std::mutex> lock(reg.mutex);
    snap.counters.reserve(reg.counters.size());
    for (const auto &[name, instrument] : reg.counters)
        snap.counters.emplace_back(name, instrument->value());
    snap.gauges.reserve(reg.gauges.size());
    for (const auto &[name, instrument] : reg.gauges)
        snap.gauges.emplace_back(name, instrument->value());
    snap.histograms.reserve(reg.histograms.size());
    for (const auto &[name, instrument] : reg.histograms)
        snap.histograms.emplace_back(name, instrument->snapshot());
    return snap;
}

std::string
metricsJson()
{
    const MetricsSnapshot snap = snapshotMetrics();
    std::string json = "{\n  \"counters\": {";
    for (std::size_t i = 0; i < snap.counters.size(); ++i) {
        json += i == 0 ? "\n" : ",\n";
        json += "    \"" + jsonEscape(snap.counters[i].first) +
            "\": " + std::to_string(snap.counters[i].second);
    }
    json += "\n  },\n  \"gauges\": {";
    for (std::size_t i = 0; i < snap.gauges.size(); ++i) {
        json += i == 0 ? "\n" : ",\n";
        json += "    \"" + jsonEscape(snap.gauges[i].first) + "\": " +
            std::to_string(snap.gauges[i].second);
    }
    json += "\n  },\n  \"histograms\": {";
    for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
        json += i == 0 ? "\n" : ",\n";
        json += "    \"" + jsonEscape(snap.histograms[i].first) +
            "\": ";
        appendHistogramJson(json, snap.histograms[i].second);
    }
    json += "\n  }\n}\n";
    return json;
}

std::string
metricsText()
{
    const MetricsSnapshot snap = snapshotMetrics();
    std::string out;
    for (const auto &[name, value] : snap.counters)
        out += name + " = " + std::to_string(value) + "\n";
    for (const auto &[name, value] : snap.gauges)
        out += name + " = " + std::to_string(value) + "\n";
    for (const auto &[name, hist] : snap.histograms) {
        out += name + ": count=" + std::to_string(hist.count) +
            " sum=" + std::to_string(hist.sum);
        for (std::size_t b = 0; b < hist.buckets.size(); ++b) {
            if (hist.buckets[b] == 0)
                continue;
            out += " [" +
                std::to_string(HistogramSnapshot::lowerBound(b)) +
                "]=" + std::to_string(hist.buckets[b]);
        }
        out += "\n";
    }
    return out;
}

void
resetMetricsForTest()
{
    Registry &reg = Registry::instance();
    std::lock_guard<std::mutex> lock(reg.mutex);
    for (auto &[name, instrument] : reg.counters)
        instrument->reset();
    for (auto &[name, instrument] : reg.gauges)
        instrument->reset();
    for (auto &[name, instrument] : reg.histograms)
        instrument->reset();
}

} // namespace clap::obs
