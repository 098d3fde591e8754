/**
 * @file
 * Tests of the ladder's measurement arithmetic (stats.hh): quantiles
 * and the deepest supported percentile on hand-computed vectors, the
 * seeded Poisson schedule's rate, and due-time latency accounting.
 */

#include <gtest/gtest.h>

#include <numeric>

#include "stats.hh"

namespace clap::ladder
{
namespace
{

TEST(LadderQuantiles, InterpolateBetweenClosestRanks)
{
    const std::vector<double> odd{1, 2, 3, 4, 5};
    EXPECT_DOUBLE_EQ(quantileSorted(odd, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(quantileSorted(odd, 0.5), 3.0);
    EXPECT_DOUBLE_EQ(quantileSorted(odd, 0.25), 2.0);
    EXPECT_DOUBLE_EQ(quantileSorted(odd, 0.99), 4.96); // 4 + 0.96*(5-4)
    EXPECT_DOUBLE_EQ(quantileSorted(odd, 1.0), 5.0);

    const std::vector<double> even{10, 20, 30, 40};
    EXPECT_DOUBLE_EQ(quantileSorted(even, 0.5), 25.0);
    EXPECT_DOUBLE_EQ(quantileSorted(even, 0.75), 32.5);

    EXPECT_DOUBLE_EQ(quantileSorted({}, 0.5), 0.0);
    EXPECT_DOUBLE_EQ(quantileSorted({7}, 0.99), 7.0);
}

TEST(LadderQuantiles, MedianSortsItsInput)
{
    EXPECT_DOUBLE_EQ(median({5, 1, 4, 2, 3}), 3.0);
    EXPECT_DOUBLE_EQ(median({9, 1}), 5.0);
}

TEST(LadderQuantiles, DeepestPercentileKeepsTenSamplesBeyond)
{
    EXPECT_DOUBLE_EQ(deepestPercentile(0), 0.0);
    EXPECT_DOUBLE_EQ(deepestPercentile(99), 0.0);
    EXPECT_DOUBLE_EQ(deepestPercentile(100), 0.9);
    EXPECT_DOUBLE_EQ(deepestPercentile(999), 0.9);
    EXPECT_DOUBLE_EQ(deepestPercentile(1000), 0.99);
    EXPECT_DOUBLE_EQ(deepestPercentile(120000), 0.9999);
    EXPECT_DOUBLE_EQ(deepestPercentile(1000000), 0.99999);
}

TEST(LadderQuantiles, SummarizeUnsortedSamples)
{
    std::vector<double> samples(1000);
    std::iota(samples.begin(), samples.end(), 1.0); // 1..1000
    std::reverse(samples.begin(), samples.end());
    const LatencySummary s = summarize(samples);
    EXPECT_EQ(s.samples, 1000u);
    EXPECT_DOUBLE_EQ(s.p50, 500.5);
    EXPECT_NEAR(s.p90, 900.1, 1e-9);  // rank 899.1 of 0..999
    EXPECT_NEAR(s.p99, 990.01, 1e-9); // rank 989.01 of 0..999
    EXPECT_DOUBLE_EQ(s.deepQ, 0.99);
    EXPECT_DOUBLE_EQ(s.deepValue, s.p99);
    EXPECT_DOUBLE_EQ(s.max, 1000.0);

    const LatencySummary few = summarize({3, 1, 2});
    EXPECT_DOUBLE_EQ(few.p50, 2.0);
    EXPECT_DOUBLE_EQ(few.deepQ, 0.0);
    EXPECT_DOUBLE_EQ(few.deepValue, 0.0);
}

TEST(LadderQuantiles, QuietIntervalsKeepTheLeastStolen)
{
    using Keep = std::vector<bool>;
    static_assert(kQuietStealPerSecond == 2.0 && kMinQuietIntervals == 5);
    // Enough quiet intervals: only they count.
    EXPECT_EQ(quietIntervals({0, 1, 2, 2, 0, 7, 9, 1}),
              (Keep{true, true, true, true, true, false, false, true}));
    EXPECT_EQ(quietIntervals({0, 0, 0, 0, 0, 0}), Keep(6, true));
    // Too few: the five least stolen from (3 is the fifth smallest).
    EXPECT_EQ(quietIntervals({0, 3, 1, 2, 5, 9, 0}),
              (Keep{true, true, true, true, false, false, true}));
    // ... with every interval tied with the fifth.
    EXPECT_EQ(quietIntervals({4, 4, 4, 4, 4, 4, 8}),
              (Keep{true, true, true, true, true, true, false}));
    // Five intervals or fewer: all of them.
    EXPECT_EQ(quietIntervals({9, 8, 7}), Keep(3, true));
    EXPECT_TRUE(quietIntervals({}).empty());
    // Rates, not counts: 3 ticks over 2 s is quiet.
    EXPECT_EQ(quietIntervals({1.5, 3.5, 0, 0, 0, 0}),
              (Keep{true, false, true, true, true, true}));
}

TEST(LadderPoisson, RateWithinOnePercentOverManyArrivals)
{
    constexpr double rate = 6000.0;
    constexpr int arrivals = 100000;
    PoissonSchedule schedule(rate, 7);
    double last = 0.0;
    for (int i = 0; i < arrivals; ++i) {
        const double t = schedule.next();
        ASSERT_GT(t, last);
        last = t;
    }
    EXPECT_NEAR(arrivals / last, rate, 0.01 * rate);
}

TEST(LadderPoisson, SeedDeterminesTheSchedule)
{
    PoissonSchedule a(3000.0, 42);
    PoissonSchedule b(3000.0, 42);
    PoissonSchedule c(3000.0, 43);
    bool differs = false;
    for (int i = 0; i < 100; ++i) {
        const double ta = a.next();
        EXPECT_EQ(ta, b.next());
        differs = differs || ta != c.next();
    }
    EXPECT_TRUE(differs);
}

TEST(LadderArrival, LateStartIsChargedToLatency)
{
    ArrivalTiming late;
    late.dueNs = 1'000'000;
    late.sentNs = 6'000'000; // the generator ran 5 ms behind
    late.doneNs = 7'000'000; // a 1 ms round trip
    EXPECT_EQ(late.latencyNs(), 6'000'000);
    EXPECT_EQ(late.rttNs(), 1'000'000);
    EXPECT_EQ(late.latenessNs(), 5'000'000);

    ArrivalTiming on_time;
    on_time.dueNs = 2'000;
    on_time.sentNs = 1'500; // woke before the due time
    on_time.doneNs = 3'000;
    EXPECT_EQ(on_time.latencyNs(), 1'000);
    EXPECT_EQ(on_time.rttNs(), 1'500);
    EXPECT_EQ(on_time.latenessNs(), 0);
}

} // namespace
} // namespace clap::ladder
