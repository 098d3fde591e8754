/** @file Unit tests for the obs metrics registry and span layer. */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/metrics.hh"
#include "obs/scrape.hh"
#include "obs/trace_context.hh"
#include "obs/trace_events.hh"
#include "util/json.hh"

namespace clap
{
namespace
{

/**
 * The span layer reads CLAP_TRACE_EVENTS once at first use, so the
 * variable must be set before any Span is constructed anywhere in
 * this binary. A namespace-scope initializer runs before main() and
 * therefore before any test body. It also registers the file's
 * removal at exit: the span layer registers its exit-time flush at
 * first use, later, and exit handlers run in reverse order, so the
 * removal runs after the flush has rewritten the file.
 */
std::string
spanFilePath()
{
    static const std::string path =
        (std::filesystem::temp_directory_path() /
         ("clap_obs_test_spans_" + std::to_string(::getpid()) +
          ".json"))
            .string();
    return path;
}

const bool spanEnvReady = [] {
    ::setenv("CLAP_TRACE_EVENTS", spanFilePath().c_str(), 1);
    std::atexit([] { std::remove(spanFilePath().c_str()); });
    return true;
}();

// --- Histogram bucket boundaries -------------------------------------

TEST(ObsHistogram, BucketOfMatchesBitWidth)
{
    EXPECT_EQ(obs::Histogram::bucketOf(0), 0u);
    EXPECT_EQ(obs::Histogram::bucketOf(1), 1u);
    EXPECT_EQ(obs::Histogram::bucketOf(2), 2u);
    EXPECT_EQ(obs::Histogram::bucketOf(3), 2u);
    EXPECT_EQ(obs::Histogram::bucketOf(4), 3u);
    EXPECT_EQ(obs::Histogram::bucketOf(7), 3u);
    EXPECT_EQ(obs::Histogram::bucketOf(8), 4u);
    EXPECT_EQ(obs::Histogram::bucketOf(1023), 10u);
    EXPECT_EQ(obs::Histogram::bucketOf(1024), 11u);
    EXPECT_EQ(obs::Histogram::bucketOf(~std::uint64_t{0}), 64u);
}

TEST(ObsHistogram, BucketBoundsAreConsistent)
{
    using Snap = obs::HistogramSnapshot;
    EXPECT_EQ(Snap::lowerBound(0), 0u);
    EXPECT_EQ(Snap::upperBound(0), 0u);
    for (std::size_t b = 1; b < Snap::kBuckets; ++b) {
        // Every value in [lowerBound, upperBound] must land in b.
        EXPECT_EQ(obs::Histogram::bucketOf(Snap::lowerBound(b)), b)
            << "bucket " << b;
        EXPECT_EQ(obs::Histogram::bucketOf(Snap::upperBound(b)), b)
            << "bucket " << b;
        // And the ranges must tile without gaps.
        EXPECT_EQ(Snap::lowerBound(b), Snap::upperBound(b - 1) + 1)
            << "bucket " << b;
    }
    EXPECT_EQ(Snap::upperBound(64), ~std::uint64_t{0});
}

TEST(ObsHistogram, RecordAndSnapshot)
{
    obs::Histogram hist;
    hist.record(0);
    hist.record(1);
    hist.record(5); // bucket 3
    hist.record(6); // bucket 3
    const obs::HistogramSnapshot snap = hist.snapshot();
    EXPECT_EQ(snap.count, 4u);
    EXPECT_EQ(snap.sum, 12u);
    EXPECT_EQ(snap.buckets[0], 1u);
    EXPECT_EQ(snap.buckets[1], 1u);
    EXPECT_EQ(snap.buckets[3], 2u);
    EXPECT_DOUBLE_EQ(snap.mean(), 3.0);

    hist.reset();
    EXPECT_EQ(hist.snapshot().count, 0u);
}

// --- Counter / gauge basics ------------------------------------------

TEST(ObsCounter, AddAndMerge)
{
    obs::Counter c;
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(ObsGauge, SetAndAdd)
{
    obs::Gauge g;
    g.set(7);
    g.add(-3);
    EXPECT_EQ(g.value(), 4);
}

TEST(ObsRegistry, SameNameSameInstrument)
{
    obs::Counter &a = obs::counter("test.registry.same");
    obs::Counter &b = obs::counter("test.registry.same");
    EXPECT_EQ(&a, &b);
    a.reset();
    a.add(3);
    EXPECT_EQ(b.value(), 3u);
}

// --- Concurrent record + snapshot merge ------------------------------

TEST(ObsConcurrency, MultiThreadRecordMergesExactly)
{
    obs::Counter &c = obs::counter("test.concurrent.counter");
    obs::Histogram &h = obs::histogram("test.concurrent.hist");
    c.reset();
    h.reset();

    constexpr unsigned kThreads = 8;
    constexpr unsigned kPerThread = 20000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (unsigned i = 0; i < kPerThread; ++i) {
                c.add();
                h.record(t + 1);
                // Snapshots taken mid-recording must not crash or
                // tear (values are monotone while recording).
                if (i % 4096 == 0) {
                    const auto snap = h.snapshot();
                    EXPECT_LE(snap.count,
                              std::uint64_t{kThreads} * kPerThread);
                }
            }
        });
    }
    for (auto &thread : threads)
        thread.join();

    EXPECT_EQ(c.value(), std::uint64_t{kThreads} * kPerThread);
    const auto snap = h.snapshot();
    EXPECT_EQ(snap.count, std::uint64_t{kThreads} * kPerThread);
    std::uint64_t expected_sum = 0;
    for (unsigned t = 0; t < kThreads; ++t)
        expected_sum += std::uint64_t{t + 1} * kPerThread;
    EXPECT_EQ(snap.sum, expected_sum);
}

// --- Snapshot rendering ----------------------------------------------

TEST(ObsRegistry, JsonParsesAndContainsInstruments)
{
    obs::counter("test.json.counter").reset();
    obs::counter("test.json.counter").add(5);
    obs::gauge("test.json.gauge").set(-2);
    obs::histogram("test.json.hist").record(9);

    const std::string json = obs::metricsJson();
    const auto parsed = parseJson(json);
    ASSERT_TRUE(parsed) << parsed.error().str();
    ASSERT_EQ(parsed->kind, JsonValue::Kind::Object);

    const JsonValue *counters = parsed->find("counters");
    ASSERT_NE(counters, nullptr);
    const JsonValue *value = counters->find("test.json.counter");
    ASSERT_NE(value, nullptr);
    EXPECT_TRUE(value->isUint);
    EXPECT_EQ(value->uintValue, 5u);

    const JsonValue *gauges = parsed->find("gauges");
    ASSERT_NE(gauges, nullptr);
    ASSERT_NE(gauges->find("test.json.gauge"), nullptr);

    const JsonValue *hists = parsed->find("histograms");
    ASSERT_NE(hists, nullptr);
    ASSERT_NE(hists->find("test.json.hist"), nullptr);

    const std::string text = obs::metricsText();
    EXPECT_NE(text.find("test.json.counter"), std::string::npos);
}

TEST(ObsRegistry, SnapshotIsNameOrdered)
{
    obs::counter("test.order.b").add();
    obs::counter("test.order.a").add();
    const obs::MetricsSnapshot snap = obs::snapshotMetrics();
    for (std::size_t i = 1; i < snap.counters.size(); ++i)
        EXPECT_LT(snap.counters[i - 1].first, snap.counters[i].first);
}

// --- Span file JSON validity -----------------------------------------

TEST(ObsSpans, FlushedFileIsValidTraceEventJson)
{
    ASSERT_TRUE(spanEnvReady);
    ASSERT_TRUE(obs::traceEventsEnabled());
    ASSERT_EQ(obs::traceEventsPath(), spanFilePath());

    {
        obs::Span outer("test.outer", "test");
        obs::Span inner("test.inner", "test");
        obs::traceInstant("test.instant", "test");
    }
    std::thread([] {
        obs::Span span("test.worker", "test");
    }).join();

    EXPECT_GE(obs::bufferedTraceEventCount(), 4u);
    const auto flushed = obs::flushTraceEvents();
    ASSERT_TRUE(flushed) << flushed.error().str();

    std::ifstream in(spanFilePath(), std::ios::binary);
    ASSERT_TRUE(in.is_open());
    std::ostringstream buffer;
    buffer << in.rdbuf();

    const auto parsed = parseJson(buffer.str());
    ASSERT_TRUE(parsed) << parsed.error().str();
    ASSERT_EQ(parsed->kind, JsonValue::Kind::Object);
    EXPECT_EQ(parsed->stringOr("displayTimeUnit", ""), "ns");

    const JsonValue *events = parsed->find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->kind, JsonValue::Kind::Array);

    bool saw_outer = false;
    bool saw_instant = false;
    bool saw_worker = false;
    double last_ts = -1.0;
    for (const JsonValue &event : events->items) {
        ASSERT_EQ(event.kind, JsonValue::Kind::Object);
        const std::string name = event.stringOr("name", "");
        const std::string ph = event.stringOr("ph", "");
        ASSERT_FALSE(ph.empty());
        if (ph == "M")
            continue; // metadata events carry no ts ordering claim
        const JsonValue *ts = event.find("ts");
        ASSERT_NE(ts, nullptr);
        ASSERT_EQ(ts->kind, JsonValue::Kind::Number);
        EXPECT_GE(ts->number, last_ts); // sorted deterministically
        last_ts = ts->number;
        if (ph == "X") {
            const JsonValue *dur = event.find("dur");
            ASSERT_NE(dur, nullptr) << name;
            EXPECT_EQ(dur->kind, JsonValue::Kind::Number);
        }
        if (name == "test.outer") {
            saw_outer = true;
            EXPECT_EQ(ph, "X");
        }
        if (name == "test.instant") {
            saw_instant = true;
            EXPECT_EQ(ph, "i");
            EXPECT_EQ(event.stringOr("s", ""), "t");
        }
        if (name == "test.worker")
            saw_worker = true;
    }
    EXPECT_TRUE(saw_outer);
    EXPECT_TRUE(saw_instant);
    EXPECT_TRUE(saw_worker);

    // Flushing again is idempotent and cumulative.
    const auto again = obs::flushTraceEvents();
    ASSERT_TRUE(again);

    std::remove(spanFilePath().c_str());
}

// --- Interpolated quantiles ------------------------------------------

TEST(ObsQuantile, EmptySnapshotIsZeroEverywhere)
{
    obs::HistogramSnapshot snap;
    EXPECT_DOUBLE_EQ(snap.quantile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(snap.quantile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(snap.quantile(1.0), 0.0);
    EXPECT_DOUBLE_EQ(snap.p99(), 0.0);
}

TEST(ObsQuantile, AddValueFillsBucketsLikeRecord)
{
    // addValue is the bench-side aggregation path: it must place
    // values in exactly the buckets Histogram::record would, without
    // consulting CLAP_METRICS.
    obs::HistogramSnapshot snap;
    snap.addValue(0);
    snap.addValue(1);
    snap.addValue(5);
    snap.addValue(6);
    EXPECT_EQ(snap.count, 4u);
    EXPECT_EQ(snap.sum, 12u);
    EXPECT_EQ(snap.buckets[0], 1u);
    EXPECT_EQ(snap.buckets[1], 1u);
    EXPECT_EQ(snap.buckets[3], 2u);
}

TEST(ObsQuantile, PointMassesInterpolateExactly)
{
    // All mass in single-value buckets: the interpolation has no
    // width to spread over, so the estimates are exact.
    obs::HistogramSnapshot ones;
    for (int i = 0; i < 100; ++i)
        ones.addValue(1);
    EXPECT_DOUBLE_EQ(ones.quantile(0.01), 1.0);
    EXPECT_DOUBLE_EQ(ones.p50(), 1.0);
    EXPECT_DOUBLE_EQ(ones.quantile(1.0), 1.0);

    obs::HistogramSnapshot zeros;
    zeros.addValue(0);
    EXPECT_DOUBLE_EQ(zeros.quantile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(zeros.quantile(1.0), 0.0);
}

TEST(ObsQuantile, InterpolatesInsideTheContainingBucket)
{
    // 1 (bucket 1), 2+3 (bucket 2), 4 (bucket 3).
    obs::HistogramSnapshot snap;
    snap.addValue(1);
    snap.addValue(2);
    snap.addValue(3);
    snap.addValue(4);
    // target rank 1.0 lands exactly on bucket 1's full mass.
    EXPECT_DOUBLE_EQ(snap.quantile(0.25), 1.0);
    // target rank 2.0: halfway through bucket 2's two values,
    // interpolated across [2, 3].
    EXPECT_DOUBLE_EQ(snap.quantile(0.50), 2.5);
    // The top quantile cannot leave the top occupied bucket [4, 7].
    EXPECT_GE(snap.quantile(1.0), 4.0);
    EXPECT_LE(snap.quantile(1.0), 7.0);
}

TEST(ObsQuantile, IsMonotoneAndClamped)
{
    obs::HistogramSnapshot snap;
    for (std::uint64_t v = 1; v <= 1000; ++v)
        snap.addValue(v);
    double last = -1.0;
    for (int step = 0; step <= 20; ++step) {
        const double q = static_cast<double>(step) / 20.0;
        const double value = snap.quantile(q);
        EXPECT_GE(value, last) << "q=" << q;
        last = value;
    }
    // Out-of-range q clamps rather than extrapolating.
    EXPECT_DOUBLE_EQ(snap.quantile(-1.0), snap.quantile(0.0));
    EXPECT_DOUBLE_EQ(snap.quantile(2.0), snap.quantile(1.0));
    // The helpers are plain shorthands.
    EXPECT_DOUBLE_EQ(snap.p50(), snap.quantile(0.50));
    EXPECT_DOUBLE_EQ(snap.p95(), snap.quantile(0.95));
    EXPECT_DOUBLE_EQ(snap.p99(), snap.quantile(0.99));
    // Sanity on a uniform 1..1000: the median estimate sits within
    // one log2 bucket of the true 500.
    EXPECT_GE(snap.p50(), 256.0);
    EXPECT_LE(snap.p50(), 1023.0);
}

// --- Scrape rendering ------------------------------------------------

TEST(ObsScrape, TimingMetricNamesAreSuffixKeyed)
{
    EXPECT_TRUE(obs::isTimingMetricName("net.stage.total_ns"));
    EXPECT_TRUE(obs::isTimingMetricName("request_us"));
    EXPECT_TRUE(obs::isTimingMetricName("pause_ms"));
    EXPECT_FALSE(obs::isTimingMetricName("serve.batch.size"));
    EXPECT_FALSE(obs::isTimingMetricName("ns"));
    EXPECT_FALSE(obs::isTimingMetricName("burns"));
}

TEST(ObsScrape, HistogramJsonRoundTripsSparseBuckets)
{
    obs::HistogramSnapshot snap;
    snap.addValue(0);
    snap.addValue(5);
    snap.addValue(5);
    const std::string json = obs::scrapeHistogramJson(snap);
    const auto parsed = parseJson(json);
    ASSERT_TRUE(parsed) << parsed.error().str();
    EXPECT_EQ(parsed->uintOr("count", 0), 3u);
    EXPECT_EQ(parsed->uintOr("sum", 0), 10u);
    ASSERT_NE(parsed->find("p50"), nullptr);
    ASSERT_NE(parsed->find("p95"), nullptr);
    ASSERT_NE(parsed->find("p99"), nullptr);

    // Zero buckets are omitted: exactly bucket 0 (one zero) and
    // bucket 3 (two fives) appear, as [lower_bound, count] pairs.
    const JsonValue *buckets = parsed->find("buckets");
    ASSERT_NE(buckets, nullptr);
    ASSERT_EQ(buckets->kind, JsonValue::Kind::Array);
    ASSERT_EQ(buckets->items.size(), 2u);
    ASSERT_EQ(buckets->items[0].items.size(), 2u);
    EXPECT_EQ(buckets->items[0].items[0].uintValue, 0u);
    EXPECT_EQ(buckets->items[0].items[1].uintValue, 1u);
    EXPECT_EQ(buckets->items[1].items[0].uintValue, 4u);
    EXPECT_EQ(buckets->items[1].items[1].uintValue, 2u);
}

// --- Distributed trace context ---------------------------------------

TEST(ObsTraceContext, DefaultContextIsInvalid)
{
    EXPECT_FALSE(obs::TraceContext{}.valid());
    obs::TraceContext ctx;
    ctx.traceId = 1;
    EXPECT_TRUE(ctx.valid());
}

TEST(ObsTraceContext, IdsAreNonZeroAndUsable)
{
    const std::uint64_t a = obs::newSpanId();
    const std::uint64_t b = obs::newSpanId();
    EXPECT_NE(a, 0u);
    EXPECT_NE(b, 0u);
    EXPECT_NE(a, b);

    // Seed-derived trace ids are deterministic (load drivers stamp
    // reproducible traces) and never the "no trace" sentinel.
    EXPECT_EQ(obs::traceIdFromSeed(7), obs::traceIdFromSeed(7));
    EXPECT_NE(obs::traceIdFromSeed(7), obs::traceIdFromSeed(8));
    EXPECT_NE(obs::traceIdFromSeed(0), 0u);
}

TEST(ObsTraceContext, ScopeInstallsAndRestores)
{
    const obs::TraceContext before = obs::currentTraceContext();
    obs::TraceContext outer;
    outer.traceId = obs::traceIdFromSeed(99);
    outer.spanId = obs::newSpanId();
    outer.sampled = true;
    {
        obs::TraceScope scope(outer);
        const obs::TraceContext seen = obs::currentTraceContext();
        EXPECT_EQ(seen.traceId, outer.traceId);
        EXPECT_EQ(seen.spanId, outer.spanId);
        EXPECT_TRUE(seen.sampled);
        {
            obs::TraceContext inner = seen;
            inner.spanId = obs::newSpanId();
            obs::TraceScope nested(inner);
            EXPECT_EQ(obs::currentTraceContext().spanId, inner.spanId);
        }
        // The nested scope restored the outer context exactly.
        EXPECT_EQ(obs::currentTraceContext().spanId, outer.spanId);
    }
    EXPECT_EQ(obs::currentTraceContext().traceId, before.traceId);
    EXPECT_EQ(obs::currentTraceContext().spanId, before.spanId);
}

TEST(ObsTraceContext, ContextIsPerThread)
{
    obs::TraceContext ctx;
    ctx.traceId = obs::traceIdFromSeed(123);
    ctx.spanId = obs::newSpanId();
    obs::TraceScope scope(ctx);
    std::thread([] {
        // The ambient context must not leak across threads.
        EXPECT_FALSE(obs::currentTraceContext().valid());
    }).join();
    EXPECT_EQ(obs::currentTraceContext().traceId, ctx.traceId);
}

TEST(ObsTraceContext, SampledSpanChainsUnderAmbientContext)
{
    ASSERT_TRUE(obs::traceEventsEnabled());

    obs::TraceContext ctx;
    ctx.traceId = obs::traceIdFromSeed(0xabc);
    ctx.spanId = obs::newSpanId();
    ctx.sampled = true;
    {
        obs::TraceScope scope(ctx);
        obs::Span span("test.linked", "test");
        // The span installed itself as the current context: same
        // trace, new span id, still sampled.
        const obs::TraceContext inner = obs::currentTraceContext();
        EXPECT_EQ(inner.traceId, ctx.traceId);
        EXPECT_NE(inner.spanId, ctx.spanId);
        EXPECT_TRUE(inner.sampled);
    }
    ASSERT_TRUE(obs::flushTraceEvents());

    // The flushed event carries the linkage args Perfetto needs.
    std::ifstream in(spanFilePath(), std::ios::binary);
    ASSERT_TRUE(in.is_open());
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const auto parsed = parseJson(buffer.str());
    ASSERT_TRUE(parsed) << parsed.error().str();
    const JsonValue *events = parsed->find("traceEvents");
    ASSERT_NE(events, nullptr);
    bool found = false;
    char want[32];
    std::snprintf(want, sizeof(want), "0x%llx",
                  static_cast<unsigned long long>(ctx.traceId));
    for (const JsonValue &event : events->items) {
        if (event.stringOr("name", "") != "test.linked")
            continue;
        found = true;
        const JsonValue *args = event.find("args");
        ASSERT_NE(args, nullptr);
        EXPECT_EQ(args->stringOr("trace_id", ""), want);
        char parent[32];
        std::snprintf(parent, sizeof(parent), "0x%llx",
                      static_cast<unsigned long long>(ctx.spanId));
        EXPECT_EQ(args->stringOr("parent_span_id", ""), parent);
        EXPECT_NE(args->stringOr("span_id", ""), "");
        EXPECT_NE(args->stringOr("span_id", ""), parent);
    }
    EXPECT_TRUE(found);
    std::remove(spanFilePath().c_str());
}

TEST(ObsSpans, OverflowDropsAreMirroredIntoTheRegistry)
{
    ASSERT_TRUE(obs::traceEventsEnabled());
    obs::Counter &dropped = obs::counter("obs.trace_events.dropped");
    const std::uint64_t before = dropped.value();

    // A fresh thread starts with an empty per-thread buffer: with the
    // limit forced to 1, the first span lands and the rest drop.
    obs::setTraceEventBufferLimitForTest(1);
    std::thread([] {
        for (int i = 0; i < 5; ++i)
            obs::Span span("test.drop", "test");
    }).join();
    obs::setTraceEventBufferLimitForTest(0); // restore the default

    EXPECT_EQ(dropped.value(), before + 4);
}

TEST(ObsSpans, EarlyFinishIsIdempotent)
{
    const std::size_t before = obs::bufferedTraceEventCount();
    obs::Span span("test.early", "test");
    span.finish();
    span.finish(); // second call must not record again
    EXPECT_EQ(obs::bufferedTraceEventCount(), before + 1);
}

} // namespace
} // namespace clap
