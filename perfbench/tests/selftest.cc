/**
 * @file
 * Self-tests of the benchmark's measurement arithmetic: percentile
 * support and sample counts, open-loop due-time accounting, span self
 * time, and counter-snapshot diffing.
 */

#include <gtest/gtest.h>

#include "measure.hh"
#include "trace.hh"

using namespace perfbench;

TEST(Percentiles, HighestSupportedNeedsTenSamplesBeyond)
{
    EXPECT_EQ(supportedTailPercentile(0), 0.0);
    EXPECT_EQ(supportedTailPercentile(19), 0.0);
    EXPECT_EQ(supportedTailPercentile(20), 50.0);
    EXPECT_EQ(supportedTailPercentile(99), 50.0);
    EXPECT_EQ(supportedTailPercentile(100), 90.0);
    EXPECT_EQ(supportedTailPercentile(999), 90.0);
    EXPECT_EQ(supportedTailPercentile(1000), 99.0);
    EXPECT_EQ(supportedTailPercentile(250000), 99.0);
    EXPECT_EQ(samplesBeyond(99.0, 1000), 10u);
    EXPECT_EQ(samplesBeyond(99.0, 999), 9u);
}

TEST(Percentiles, NearestRankAndSampleCount)
{
    std::vector<double> values;
    for (int i = 1000; i >= 1; i--)
        values.push_back(i * 1e-3);
    const LatencySummary s = summarizeLatencies(values);
    EXPECT_EQ(s.samples, 1000u);
    EXPECT_DOUBLE_EQ(s.p50, 0.5);
    EXPECT_EQ(s.tailPercentile, 99.0);
    EXPECT_DOUBLE_EQ(s.tail, 0.99);

    const LatencySummary few = summarizeLatencies({3.0, 1.0, 2.0});
    EXPECT_EQ(few.samples, 3u);
    EXPECT_DOUBLE_EQ(few.p50, 2.0);
    EXPECT_EQ(few.tailPercentile, 0.0);
    EXPECT_EQ(summarizeLatencies({}).samples, 0u);
}

TEST(OpenLoop, DueTimesFollowTheRate)
{
    const OpenLoopSchedule schedule{10.0, 400.0};
    EXPECT_DOUBLE_EQ(schedule.dueAt(0), 10.0);
    EXPECT_DOUBLE_EQ(schedule.dueAt(400), 11.0);
    EXPECT_DOUBLE_EQ(schedule.dueAt(1), 10.0025);
}

TEST(OpenLoop, LatencyCountsFromDueAndFailuresMissTheLimit)
{
    OpenLoopTally tally;
    tally.latencyLimitSeconds = 0.010;
    // On time and fast.
    tally.add({1.000, 1.000, 1.002, true});
    // Sent 30 ms late behind a stall: the wait counts, so it misses.
    tally.add({1.010, 1.040, 1.041, true});
    // Failed or refused: a miss whatever its timing.
    tally.add({1.020, 1.040, 1.041, false});
    // Clock granularity can read a send a hair before due: lag >= 0.
    tally.add({1.030, 1.0299, 1.031, true});
    EXPECT_EQ(tally.attempted, 4u);
    EXPECT_EQ(tally.failed, 1u);
    EXPECT_EQ(tally.sloMisses, 2u);
    ASSERT_EQ(tally.latencies.size(), 3u);
    EXPECT_NEAR(tally.latencies[1], 0.031, 1e-12);
    ASSERT_EQ(tally.lags.size(), 4u);
    EXPECT_NEAR(tally.lags[1], 0.030, 1e-12);
    EXPECT_EQ(tally.lags[3], 0.0);
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren)
{
    std::vector<Span> spans = {
        {"request", 1, 0, 7, 0.0, 10.0},
        {"fetch", 2, 1, 7, 1.0, 3.0},
        {"fetch", 3, 1, 7, 2.0, 4.0},   // Overlaps the first fetch.
        {"verify", 4, 1, 7, 8.0, 12.0},  // Runs past its parent.
        {"io", 5, 2, 7, 1.5, 2.0},       // Grandchild.
    };
    const auto self = selfTimesByName(spans);
    // 10 - |[1,4] u [8,10]| = 10 - 5.
    EXPECT_DOUBLE_EQ(self.at("request"), 5.0);
    EXPECT_DOUBLE_EQ(self.at("fetch"), (2.0 - 0.5) + 2.0);
    EXPECT_DOUBLE_EQ(self.at("verify"), 4.0);
    EXPECT_DOUBLE_EQ(self.at("io"), 0.5);
}

TEST(Spans, RecorderNestsAndSharesRequestIds)
{
    trace::clear();
    trace::setEnabled(true);
    {
        ScopedSpan outer("outer", 42);
        ScopedSpan inner("inner");
    }
    {
        ScopedSpan other("other", 43);
    }
    trace::setEnabled(false);
    {
        ScopedSpan off("off", 44);
    }
    const std::vector<Span> spans = trace::collect();
    ASSERT_EQ(spans.size(), 3u);
    const Span *outer = nullptr, *inner = nullptr;
    for (const Span &s : spans) {
        if (std::string(s.name) == "outer")
            outer = &s;
        if (std::string(s.name) == "inner")
            inner = &s;
    }
    ASSERT_TRUE(outer && inner);
    EXPECT_EQ(inner->parent, outer->id);
    EXPECT_EQ(inner->requestId, 42u);
    EXPECT_EQ(outer->parent, 0u);
    EXPECT_LE(outer->start, inner->start);
    EXPECT_GE(outer->end, inner->end);
    trace::clear();
}

TEST(Snapshots, CountersSubtractGaugesKeepTheLaterValue)
{
    sage::MultiArchiveStats a, b;
    a.opens = 3;
    b.opens = 5;
    a.reopens = 10;
    b.reopens = 17;
    a.overloaded = 1;
    b.overloaded = 1;
    a.bytesServed = 100;
    b.bytesServed = 1100;
    a.openArchives = 2;
    b.openArchives = 4;
    a.queueDepth = 9;
    b.queueDepth = 1;
    const sage::MultiArchiveStats d = diffStats(a, b);
    EXPECT_EQ(d.opens, 2u);
    EXPECT_EQ(d.reopens, 7u);
    EXPECT_EQ(d.overloaded, 0u);
    EXPECT_EQ(d.bytesServed, 1000u);
    EXPECT_EQ(d.openArchives, 4u);
    EXPECT_EQ(d.queueDepth, 1u);

    sage::net::ServerNetStats x, y;
    x.framesIn = 4;
    y.framesIn = 10;
    x.bytesOut = 1000;
    y.bytesOut = 5000;
    x.activeConnections = 4;
    y.activeConnections = 3;
    const sage::net::ServerNetStats n = diffStats(x, y);
    EXPECT_EQ(n.framesIn, 6u);
    EXPECT_EQ(n.bytesOut, 4000u);
    EXPECT_EQ(n.activeConnections, 3u);
}

TEST(Snapshots, CacheRatioKeepsCoalescedWaitsApart)
{
    sage::ChunkCacheStats before, after;
    before.hits = 10;
    after.hits = 70;
    before.misses = 5;
    after.misses = 25;
    after.coalescedWaits = 20;
    after.residentBytes = 4096;
    before.residentBytes = 1 << 20;
    const sage::ChunkCacheStats d = diffStats(before, after);
    EXPECT_EQ(d.hits, 60u);
    EXPECT_EQ(d.misses, 20u);
    EXPECT_EQ(d.coalescedWaits, 20u);
    EXPECT_EQ(d.residentBytes, 4096u);
    // 60 / (60 + 20 + 20); hitRate() would say 80 / 100.
    EXPECT_DOUBLE_EQ(retentionHitRatio(d), 0.6);

    sage::ChunkCacheStats sum;
    accumulate(sum, d);
    accumulate(sum, d);
    EXPECT_EQ(sum.hits, 120u);
    EXPECT_EQ(sum.residentBytes, 8192u);
}
