/**
 * @file
 * The ladder's measurement arithmetic: exact quantiles over raw
 * samples, the deepest percentile a sample count supports, the choice
 * of intervals least disturbed by the hypervisor, the seeded Poisson
 * arrival schedule of the open-loop workload, and due-time latency
 * accounting. Everything here is a pure function of its
 * inputs so the ladder-local tests can check it on hand-computed
 * vectors.
 *
 * Quantiles come from the sorted samples, not from the log2
 * histograms of src/obs: a log2 bucket spans a factor of two, which is
 * far coarser than the 10% a regression bound allows.
 */

#ifndef CLAP_BENCH_LADDER_STATS_HH
#define CLAP_BENCH_LADDER_STATS_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "util/rng.hh"

namespace clap::ladder
{

/**
 * The @p q quantile (0 <= q <= 1) of ascending @p sorted, linearly
 * interpolated between the two closest ranks (the estimator numpy and
 * Python's statistics module call "inclusive"). 0 when empty.
 */
inline double
quantileSorted(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    const double pos =
        std::clamp(q, 0.0, 1.0) * static_cast<double>(sorted.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

/**
 * The deepest percentile of the form 1 - 10^-k (k >= 1: p90, p99,
 * p99.9, ...) that still has at least ten of @p n samples beyond it;
 * 0 when @p n < 100 supports none.
 */
inline double
deepestPercentile(std::size_t n)
{
    double beyond = 0.1; // share of samples above the percentile
    double deepest = 0.0;
    while (static_cast<double>(n) * beyond >= 10.0 - 1e-9) {
        deepest = 1.0 - beyond;
        beyond /= 10.0;
    }
    return deepest;
}

/** A latency distribution reduced to what the ladder reports. */
struct LatencySummary
{
    std::size_t samples = 0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
    double deepQ = 0.0;     ///< deepestPercentile(samples); 0 = none
    double deepValue = 0.0; ///< the deepQ quantile
    double max = 0.0;
};

/** Summarise raw samples (any unit; consumed and sorted). */
inline LatencySummary
summarize(std::vector<double> samples)
{
    std::sort(samples.begin(), samples.end());
    LatencySummary s;
    s.samples = samples.size();
    s.p50 = quantileSorted(samples, 0.50);
    s.p90 = quantileSorted(samples, 0.90);
    s.p99 = quantileSorted(samples, 0.99);
    s.deepQ = deepestPercentile(samples.size());
    s.deepValue = s.deepQ > 0.0 ? quantileSorted(samples, s.deepQ) : 0.0;
    s.max = samples.empty() ? 0.0 : samples.back();
    return s;
}

/** Median of unsorted values (0 when empty). */
inline double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    return quantileSorted(values, 0.5);
}

/** Hypervisor steal (clock ticks, 10 ms each, summed over the vCPUs)
 *  per second up to which an interval counts as quiet. */
constexpr double kQuietStealPerSecond = 2.0;

/** Fewest intervals a run's medians are taken over. */
constexpr std::size_t kMinQuietIntervals = 5;

/**
 * Which intervals to keep, given the hypervisor steal each suffered in
 * ticks per second: those at or below kQuietStealPerSecond or, when
 * fewer than kMinQuietIntervals are, the kMinQuietIntervals least
 * stolen from (with any tied with the last of them). Every interval
 * when there are no more than kMinQuietIntervals.
 *
 * On a shared host a vCPU the hypervisor deschedules stalls whatever
 * ran on it for 10 ms or more. The program did not cause that, and it
 * moves a second's tail far more than its median: on a 4-vCPU
 * Firecracker guest, wire-open seconds with 0-2 ticks of steal had
 * p90s within 8% of each other, and seconds with 6-10 ticks 33%
 * higher, with p99s 7x higher.
 */
inline std::vector<bool>
quietIntervals(const std::vector<double> &steal_per_s)
{
    std::vector<double> sorted = steal_per_s;
    std::sort(sorted.begin(), sorted.end());
    const double cut = sorted.size() <= kMinQuietIntervals
        ? INFINITY
        : std::max(kQuietStealPerSecond, sorted[kMinQuietIntervals - 1]);
    std::vector<bool> keep;
    for (double steal : steal_per_s)
        keep.push_back(steal <= cut);
    return keep;
}

/**
 * Seeded Poisson arrivals: exponential gaps at @p rate per second.
 * next() returns successive arrival times in seconds from 0, so the
 * schedule is a pure function of (rate, seed).
 */
class PoissonSchedule
{
  public:
    PoissonSchedule(double rate_per_s, std::uint64_t seed)
        : rate_(rate_per_s), rng_(seed)
    {
    }

    double
    next()
    {
        // 1 - u lies in (0, 1], so the log is finite.
        now_ += -std::log(1.0 - rng_.uniform()) / rate_;
        return now_;
    }

  private:
    double rate_;
    Rng rng_;
    double now_ = 0.0;
};

/**
 * One open-loop arrival's timestamps (ns on one clock). Latency runs
 * from when the request was due, so a stall that delays later sends
 * is charged to those requests; the round trip runs from the actual
 * send; lateness is how far the generator ran behind its schedule.
 */
struct ArrivalTiming
{
    std::int64_t dueNs = 0;
    std::int64_t sentNs = 0;
    std::int64_t doneNs = 0;

    std::int64_t latencyNs() const { return doneNs - dueNs; }
    std::int64_t rttNs() const { return doneNs - sentNs; }
    std::int64_t
    latenessNs() const
    {
        return std::max<std::int64_t>(0, sentNs - dueNs);
    }
};

} // namespace clap::ladder

#endif // CLAP_BENCH_LADDER_STATS_HH
