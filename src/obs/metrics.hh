/**
 * @file
 * Low-overhead metrics registry: named counters, gauges, and
 * log2-bucketed histograms with lock-free record paths and
 * merge-on-snapshot semantics. Counters are striped across
 * cache-line-padded atomic slots (one stripe per recording thread,
 * assigned round-robin), so concurrent increments never contend on a
 * shared line; a snapshot sums the stripes. Histograms bucket a value
 * v into bucket 0 (v == 0) or bucket bit_width(v) (2^(k-1) <= v <
 * 2^k), which is exact enough for latency/occupancy distributions and
 * makes record() a single relaxed fetch_add.
 *
 * Instruments are registered by name on first use (one mutex-guarded
 * map lookup; call sites cache the returned reference in a static
 * local) and recorded without any lock afterwards. Snapshots render
 * deterministically — instruments ordered by name — as text or as
 * JSON parseable by util/json.hh.
 *
 * Cost model: recording is one predicted branch (the global runtime
 * enable flag, CLAP_METRICS, default on) plus one relaxed atomic add.
 * The switch may not change any simulation result — metrics only
 * observe.
 */

#ifndef CLAP_OBS_METRICS_HH
#define CLAP_OBS_METRICS_HH

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace clap::obs
{

/** True unless the CLAP_METRICS environment variable disables
 *  recording ("0", "off", or "false"; read once at first use). */
bool metricsEnabled();

namespace detail
{

constexpr unsigned kStripes = 8; ///< power of two

/** One cache-line-padded atomic slot of a striped counter. */
struct alignas(64) Stripe
{
    std::atomic<std::uint64_t> value{0};
};

/** The calling thread's stripe slot (round-robin at first use). */
unsigned stripeIndex();

} // namespace detail

/** Monotone event counter (merge-on-snapshot across stripes). */
class Counter
{
  public:
    void
    add(std::uint64_t n = 1)
    {
        if (metricsEnabled()) {
            stripes_[detail::stripeIndex()].value.fetch_add(
                n, std::memory_order_relaxed);
        }
    }

    /** Merged value across all stripes. */
    std::uint64_t
    value() const
    {
        std::uint64_t total = 0;
        for (const auto &stripe : stripes_)
            total += stripe.value.load(std::memory_order_relaxed);
        return total;
    }

    /** Zero every stripe (tests only; racy against recorders). */
    void
    reset()
    {
        for (auto &stripe : stripes_)
            stripe.value.store(0, std::memory_order_relaxed);
    }

  private:
    std::array<detail::Stripe, detail::kStripes> stripes_;
};

/** Last-writer-wins instantaneous value (queue depth and the like). */
class Gauge
{
  public:
    void
    set(std::int64_t v)
    {
        if (metricsEnabled())
            value_.store(v, std::memory_order_relaxed);
    }

    void
    add(std::int64_t n)
    {
        if (metricsEnabled())
            value_.fetch_add(n, std::memory_order_relaxed);
    }

    std::int64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::int64_t> value_{0};
};

/** Merged point-in-time view of one Histogram. */
struct HistogramSnapshot
{
    /// Bucket 0 counts zero values; bucket k counts values with
    /// bit_width k, i.e. 2^(k-1) <= v < 2^k. 64-bit values need
    /// 1 + 64 buckets.
    static constexpr std::size_t kBuckets = 65;

    std::array<std::uint64_t, kBuckets> buckets{};
    std::uint64_t count = 0; ///< total recorded values
    std::uint64_t sum = 0;   ///< sum of recorded values

    /** Inclusive lower bound of bucket @p b. */
    static std::uint64_t
    lowerBound(std::size_t b)
    {
        return b == 0 ? 0 : std::uint64_t{1} << (b - 1);
    }

    /** Inclusive upper bound of bucket @p b. */
    static std::uint64_t
    upperBound(std::size_t b)
    {
        if (b == 0)
            return 0;
        if (b >= 64)
            return ~std::uint64_t{0};
        return (std::uint64_t{1} << b) - 1;
    }

    double
    mean() const
    {
        return count == 0
            ? 0.0
            : static_cast<double>(sum) / static_cast<double>(count);
    }

    /** Count one value directly into the snapshot. Unlike
     *  Histogram::record this ignores CLAP_METRICS, so benches can
     *  aggregate their own latencies without the registry. */
    void
    addValue(std::uint64_t v)
    {
        buckets[static_cast<std::size_t>(std::bit_width(v))] += 1;
        count += 1;
        sum += v;
    }

    /**
     * Interpolated quantile estimate, 0 <= q <= 1. Walks the
     * cumulative bucket counts to the bucket containing the q-th
     * value and interpolates linearly inside it, so the estimate is
     * exact at bucket boundaries and within one log2 bucket
     * everywhere (q clamped; 0 when empty). p50/p95/p99 helpers for
     * the common latency tails.
     */
    double quantile(double q) const;

    double p50() const { return quantile(0.50); }
    double p95() const { return quantile(0.95); }
    double p99() const { return quantile(0.99); }
};

/** Log2-bucketed value distribution with lock-free record. */
class Histogram
{
  public:
    /** The bucket value @p v lands in. */
    static std::size_t
    bucketOf(std::uint64_t v)
    {
        return static_cast<std::size_t>(std::bit_width(v));
    }

    void
    record(std::uint64_t v)
    {
        if (metricsEnabled()) {
            buckets_[bucketOf(v)].fetch_add(1,
                                            std::memory_order_relaxed);
            sum_.fetch_add(v, std::memory_order_relaxed);
        }
    }

    HistogramSnapshot
    snapshot() const
    {
        HistogramSnapshot snap;
        for (std::size_t b = 0; b < snap.buckets.size(); ++b) {
            snap.buckets[b] =
                buckets_[b].load(std::memory_order_relaxed);
            snap.count += snap.buckets[b];
        }
        snap.sum = sum_.load(std::memory_order_relaxed);
        return snap;
    }

    void
    reset()
    {
        for (auto &bucket : buckets_)
            bucket.store(0, std::memory_order_relaxed);
        sum_.store(0, std::memory_order_relaxed);
    }

  private:
    std::array<std::atomic<std::uint64_t>, HistogramSnapshot::kBuckets>
        buckets_{};
    std::atomic<std::uint64_t> sum_{0};
};

/** Deterministic (name-ordered) snapshot of every instrument. */
struct MetricsSnapshot
{
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, std::int64_t>> gauges;
    std::vector<std::pair<std::string, HistogramSnapshot>> histograms;
};

/** The instrument named @p name, registered on first use. The
 *  returned reference is stable for the process lifetime — cache it
 *  in a static local at hot call sites. */
Counter &counter(std::string_view name);
Gauge &gauge(std::string_view name);
Histogram &histogram(std::string_view name);

/** Merge-on-snapshot view of the whole registry, ordered by name. */
MetricsSnapshot snapshotMetrics();

/** The registry as one JSON document (parseable by util/json.hh). */
std::string metricsJson();

/** Human-readable multi-line rendering of the registry. */
std::string metricsText();

/** Zero every registered instrument (tests; instruments survive). */
void resetMetricsForTest();

} // namespace clap::obs

#endif // CLAP_OBS_METRICS_HH
