/**
 * @file
 * Sample statistics for the benchmark: nearest-rank percentiles and the
 * tail rule.
 *
 * Tail rule: a tail percentile is only reported where at least
 * kTailBeyond samples lie beyond it. The sample (in arrival order) is cut
 * into consecutive parts just large enough for that -- 1000 samples for
 * p99, 100 for p90 -- and the tail is the median over the parts of each
 * part's percentile. The highest rung of kTailLadder that yields at least
 * kMinParts parts is used. Taking the median over parts keeps one burst
 * of scheduler or hypervisor stalls on a shared host (which lands in one
 * or two parts) from deciding the figure, and a fixed ladder keeps the
 * reported percentile the same from run to run.
 */

#ifndef PERFBENCH_BENCH_STATS_H_
#define PERFBENCH_BENCH_STATS_H_

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/** Samples that must lie beyond a percentile for it to count as the tail. */
inline constexpr std::size_t kTailBeyond = 10;

/** Candidate tail percentiles, highest first. */
inline constexpr std::array<double, 2> kTailLadder = {99.0, 90.0};

/** Parts a sample must fill for a rung to be used. */
inline constexpr std::size_t kMinParts = 3;

/** 1-based nearest rank of percentile @p p over @p n samples (n >= 1). */
inline std::size_t
nearestRank(double p, std::size_t n)
{
    const double exact = p / 100.0 * double(n);
    // Guard against 99.0 / 100 * 1000 landing at 990.0000000001.
    std::size_t rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
    return std::clamp<std::size_t>(rank, 1, n);
}

/** Samples strictly above the nearest rank of @p p. */
inline std::size_t
samplesBeyond(double p, std::size_t n)
{
    return n == 0 ? 0 : n - nearestRank(p, n);
}

/** Smallest part size with kTailBeyond samples beyond percentile @p p. */
inline std::size_t
partSize(double p)
{
    std::size_t m = 1;
    while (samplesBeyond(p, m) < kTailBeyond)
        ++m;
    return m;
}

/**
 * Rung used for a sample of @p n: the highest one that fills kMinParts
 * parts, or 100 (the maximum) when none does.
 */
inline double
tailPercentile(std::size_t n)
{
    for (double p : kTailLadder) {
        if (n >= kMinParts * partSize(p))
            return p;
    }
    return 100.0;
}

/** Nearest-rank percentile of an ascending-sorted, non-empty sample. */
inline double
percentileSorted(const std::vector<double> &sorted, double p)
{
    return sorted[nearestRank(p, sorted.size()) - 1];
}

inline double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    if (n == 0)
        return 0;
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/**
 * Median over consecutive parts of partSize(@p p) samples of each part's
 * @p p-th percentile; the last part takes the remainder, so every part
 * has at least kTailBeyond samples beyond its percentile. @p parts
 * receives the part count. Needs samples.size() >= partSize(p).
 */
inline double
partPercentile(const std::vector<double> &samples, double p,
               std::size_t &parts)
{
    const std::size_t m = partSize(p);
    parts = samples.size() / m;
    std::vector<double> values;
    for (std::size_t i = 0; i < parts; ++i) {
        const auto first = samples.begin() + std::ptrdiff_t(i * m);
        const auto last =
            i + 1 == parts ? samples.end() : first + std::ptrdiff_t(m);
        std::vector<double> part(first, last);
        std::sort(part.begin(), part.end());
        values.push_back(percentileSorted(part, p));
    }
    return median(std::move(values));
}

/** Median, tail and maximum of one sample, with its size. */
struct Dist
{
    std::size_t n = 0;
    double p50 = 0;
    double tailP = 100.0;     ///< percentile the tail was taken at
    std::size_t parts = 1;    ///< parts the tail is the median over
    double tail = 0;
    double max = 0;
};

/** Summarize @p samples, given in arrival order. */
inline Dist
summarize(const std::vector<double> &samples)
{
    Dist d;
    d.n = samples.size();
    if (samples.empty())
        return d;
    std::vector<double> sorted = samples;
    std::sort(sorted.begin(), sorted.end());
    d.p50 = percentileSorted(sorted, 50.0);
    d.max = sorted.back();
    d.tailP = tailPercentile(d.n);
    d.tail = d.tailP == 100.0 ? d.max
                              : partPercentile(samples, d.tailP, d.parts);
    return d;
}

/**
 * Layer-sum bookkeeping: how much of each span (a batch, an epoch) the
 * layer times inside it account for. A span is covered when its layers
 * reach floorPct of it. A vCPU stall that lands between two layer calls
 * leaves one span uncovered wherever it falls, so the check tolerates
 * 1% of uncovered spans as long as the layers cover 98% of all span time.
 */
struct Coverage
{
    double floorPct = 95.0;
    double minPct = 100.0;
    double layersSum = 0;
    double spansSum = 0;
    std::size_t spans = 0;
    std::size_t below = 0;

    void
    add(double layers, double span)
    {
        const double pct = 100.0 * layers / span;
        minPct = std::min(minPct, pct);
        layersSum += layers;
        spansSum += span;
        ++spans;
        below += pct < floorPct;
    }

    double
    totalPct() const
    {
        return spansSum > 0 ? 100.0 * layersSum / spansSum : 0.0;
    }

    bool
    ok() const
    {
        return spans > 0 && totalPct() >= 98.0 && below * 100 <= spans;
    }
};

/**
 * Cost of tracing, in percent: the p50 of the first tenth of the samples
 * taken with tracing on against the p50 of the last tenth taken before
 * it was switched on. Comparing the two adjacent stretches, rather than
 * whole halves, keeps a slow drift of the workload out of the figure.
 */
inline double
overheadPct(const std::vector<double> &before, const std::vector<double> &after)
{
    const std::size_t m =
        std::max<std::size_t>(1, std::min(before.size(), after.size()) / 10);
    if (before.empty() || after.empty())
        return 0;
    const double b = median({before.end() - std::ptrdiff_t(m), before.end()});
    const double a = median({after.begin(), after.begin() + std::ptrdiff_t(m)});
    return 100.0 * (a / b - 1.0);
}

} // namespace perfbench

#endif // PERFBENCH_BENCH_STATS_H_
