/**
 * @file
 * Unit tests of the benchmark's own accounting: the tail-percentile rule,
 * open-loop lag accounting, freshness timed from the actual offer, and
 * the shape of the result line.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench_stats.h"
#include "common.h"
#include "open_loop.h"

namespace perfbench {
namespace {

constexpr std::uint64_t kMs = 1'000'000;

TEST(TailRule, NeedsTenSamplesBeyondThePercentile)
{
    // p99 of 1000 samples is rank 990: exactly ten lie beyond it.
    EXPECT_EQ(samplesBeyond(99.0, 1000), 10u);
    EXPECT_EQ(samplesBeyond(99.0, 999), 9u);
    EXPECT_EQ(partSize(99.0), 1000u);
    EXPECT_EQ(partSize(90.0), 100u);
}

TEST(TailRule, HighestRungThatFillsEnoughParts)
{
    EXPECT_EQ(tailPercentile(kMinParts * 1000), 99.0);
    EXPECT_EQ(tailPercentile(kMinParts * 1000 - 1), 90.0);
    EXPECT_EQ(tailPercentile(kMinParts * 100), 90.0);
    // Too few samples for any rung: the maximum is reported.
    EXPECT_EQ(tailPercentile(kMinParts * 100 - 1), 100.0);
    EXPECT_EQ(tailPercentile(1), 100.0);
}

TEST(TailRule, TailIsTheMedianOverParts)
{
    // Five parts of 1000 samples 1..1000 each: every part's p99 is 990.
    std::vector<double> samples;
    for (int part = 0; part < 5; ++part)
        for (int i = 1000; i >= 1; --i)
            samples.push_back(double(i));
    // A stall burst inflates the top of one part only.
    for (int i = 0; i < 50; ++i)
        samples[1000 + i] = 1e6;
    const Dist d = summarize(samples);
    EXPECT_EQ(d.n, 5000u);
    EXPECT_EQ(d.tailP, 99.0);
    EXPECT_EQ(d.parts, 5u);
    EXPECT_EQ(d.tail, 990.0);
    EXPECT_EQ(d.max, 1e6);
    EXPECT_EQ(d.p50, 500.0);

    // A remainder joins the last part rather than forming a short one.
    samples.resize(1250); // too few for three p99 parts: p90 parts of 100
    const Dist small = summarize(samples);
    EXPECT_EQ(small.tailP, 90.0);
    EXPECT_EQ(small.parts, 12u); // 1250 / 100, the last part holds 150
}

TEST(TailRule, TooFewSamplesReportTheMaximum)
{
    const Dist d = summarize({3.0, 1.0, 2.0});
    EXPECT_EQ(d.tailP, 100.0);
    EXPECT_EQ(d.tail, 3.0);
    EXPECT_EQ(d.p50, 2.0);
}

TEST(OpenLoop, ScheduleDoesNotSlowWhenTheSystemStalls)
{
    Schedule s(/*startNs=*/0, /*gapNs=*/100);
    // The generator stalls until t=1000: ten slots are overdue, and each
    // is still taken at its own due time.
    std::vector<std::uint64_t> due;
    while (s.isDue(1000))
        due.push_back(s.take());
    ASSERT_EQ(due.size(), 11u);
    for (std::size_t k = 0; k < due.size(); ++k)
        EXPECT_EQ(due[k], k * 100);
    EXPECT_FALSE(s.isDue(1099));
}

TEST(OpenLoop, LatencyCountsLagAndKeepsServiceApart)
{
    // Scheduled at 0, sent 400 ns late, served in 50 ns.
    RequestTimes t{/*scheduledNs=*/0, /*issueNs=*/400, /*doneNs=*/450};
    EXPECT_EQ(t.lagNs(), 400u);
    EXPECT_EQ(t.serviceNs(), 50u);
    EXPECT_EQ(t.latencyNs(), 450u); // from the schedule, not the send
}

/**
 * Regression for freshness timed from a schedule: probes due every 10 ms
 * on average but each taking 30 ms to become algorithm-visible fall
 * further behind their schedule with every probe. Timed from the schedule
 * the samples would grow without bound (seconds by the end); timed from
 * the actual offer every sample is the true 20 ms / 30 ms, and the
 * lateness shows up only in offerLagMs.
 */
TEST(ProbeFreshness, TimedFromTheActualOfferNotTheSchedule)
{
    ProbeTracker probes(/*startNs=*/0, /*meanGapNs=*/10 * kMs, /*seed=*/1);
    std::uint64_t now = 0;
    std::uint64_t epoch = 0;
    for (std::uint64_t k = 1; k <= 150; ++k) {
        while (!probes.wantsOffer(now))
            now += kMs;
        const std::uint64_t offer = now;
        probes.offered(offer, /*expectedDegree=*/k);

        // Not yet visible: degree still short, or an older epoch.
        probes.observeDegree(offer + 5 * kMs, k - 1, epoch);
        EXPECT_TRUE(probes.awaitingGraph());
        probes.observeDegree(offer + 20 * kMs, k, ++epoch);
        ASSERT_TRUE(probes.awaitingAlgo());
        probes.observeAlgoEpoch(offer + 25 * kMs, epoch - 1);
        EXPECT_TRUE(probes.awaitingAlgo());
        probes.observeAlgoEpoch(offer + 30 * kMs, epoch);
        ASSERT_FALSE(probes.inFlight());
        now = offer + 30 * kMs;
    }
    ASSERT_EQ(probes.freshMs().size(), 150u);
    for (std::size_t i = 0; i < 150; ++i) {
        EXPECT_DOUBLE_EQ(probes.freshMs()[i], 20.0);
        EXPECT_DOUBLE_EQ(probes.algoFreshMs()[i], 30.0);
    }
    // The schedule-based figure would have been about 3 s by the end.
    EXPECT_GT(probes.offerLagMs().back(), 2900.0);
    EXPECT_EQ(probes.offeredCount(), 150u);
}

TEST(ProbeFreshness, GapsAreDrawnAroundTheMean)
{
    // Probes that finish at once are offered when due (to the 1 us step
    // of this clock), so the offer times are the schedule: gaps in
    // [5 ms, 15 ms), mean ~10 ms.
    constexpr std::uint64_t kUs = 1000;
    ProbeTracker probes(/*startNs=*/0, /*meanGapNs=*/10 * kMs, /*seed=*/7);
    std::uint64_t now = 0, last = 0, minGap = ~0ull, maxGap = 0;
    for (std::uint64_t k = 1; k <= 1000; ++k) {
        while (!probes.wantsOffer(now))
            now += kUs;
        if (k > 1) {
            minGap = std::min(minGap, now - last);
            maxGap = std::max(maxGap, now - last);
        }
        last = now;
        probes.offered(now, k);
        probes.observeDegree(now, k, k);
        probes.observeAlgoEpoch(now, k);
    }
    EXPECT_GE(minGap + kUs, 5 * kMs);
    EXPECT_LT(maxGap, 15 * kMs + kUs);
    EXPECT_NEAR(double(last) / 999.0, 10.0 * kMs, 0.5 * kMs);
    EXPECT_LT(probes.offerLagMs().back(), 0.001);
}

TEST(LayerSum, ToleratesOneStalledSpanInAHundred)
{
    Coverage c;
    for (int i = 0; i < 99; ++i)
        c.add(99.5, 100.0);
    c.add(50.0, 100.0); // a stall between two layer calls
    EXPECT_TRUE(c.ok());
    EXPECT_EQ(c.below, 1u);
    EXPECT_DOUBLE_EQ(c.minPct, 50.0);

    c.add(50.0, 100.0); // a second one in 101 spans is too many
    EXPECT_FALSE(c.ok());

    Coverage gap;
    for (int i = 0; i < 100; ++i)
        gap.add(97.0, 100.0); // every span covered, but 3% unaccounted
    EXPECT_FALSE(gap.ok());
    EXPECT_FALSE(Coverage{}.ok());
}

TEST(Report, LastLineIsTheResultObject)
{
    Report r;
    r.attempt(4);
    r.fail(1);
    r.add("lat_p50_ms", 1.25, "ms");
    r.add("extra", 7, "count");
    r.check("oracle", true, "fine");
    std::ostringstream os;
    r.print(os);
    std::string last, line;
    std::istringstream lines(os.str());
    while (std::getline(lines, line))
        last = line;
    EXPECT_EQ(last, "{\"correct\": true, \"attempted\": 4, \"failed\": 1, "
                    "\"metrics\": {\"lat_p50_ms\": {\"value\": 1.25, "
                    "\"unit\": \"ms\"}, \"extra\": {\"value\": 7, "
                    "\"unit\": \"count\"}}}");
}

TEST(Report, FailedCheckOrNonFiniteValueClearsCorrect)
{
    Report r;
    r.check("oracle", false, "mismatch");
    EXPECT_FALSE(r.correct());

    Report nan;
    nan.add("lat_p50_ms", std::nan(""), "ms");
    EXPECT_FALSE(nan.correct());
}

} // namespace
} // namespace perfbench
