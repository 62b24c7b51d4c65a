/**
 * @file
 * Open-loop load-generation bookkeeping: the fixed-rate schedule, the
 * per-request timestamps that split latency into generator lag and
 * service time, and the freshness-probe state machine.
 *
 * Everything here works on caller-supplied nanosecond timestamps, so the
 * accounting rules can be tested with a synthetic clock.
 */

#ifndef PERFBENCH_OPEN_LOOP_H_
#define PERFBENCH_OPEN_LOOP_H_

#include <cstdint>
#include <vector>

#include "platform/rng.h"

namespace perfbench {

/**
 * Fixed-rate schedule: slot k is due at start + k * gap whether or not
 * the previous slot was served on time, so a stall in the system (or the
 * generator) delays later requests instead of thinning them out.
 */
class Schedule
{
  public:
    Schedule(std::uint64_t startNs, std::uint64_t gapNs)
        : start_(startNs), gap_(gapNs)
    {}

    std::uint64_t due() const { return start_ + next_ * gap_; }
    bool isDue(std::uint64_t nowNs) const { return nowNs >= due(); }

    /** Consume the next slot; @return the time it was due. */
    std::uint64_t
    take()
    {
        return start_ + (next_++) * gap_;
    }

    std::uint64_t taken() const { return next_; }

  private:
    std::uint64_t start_;
    std::uint64_t gap_;
    std::uint64_t next_ = 0;
};

/** Timestamps of one open-loop request. */
struct RequestTimes
{
    std::uint64_t scheduledNs = 0; ///< when the schedule said to send
    std::uint64_t issueNs = 0;     ///< when the generator actually sent
    std::uint64_t doneNs = 0;      ///< when the reply was back

    /** User-visible latency: from the scheduled arrival. */
    std::uint64_t latencyNs() const { return doneNs - scheduledNs; }
    /** How late the generator ran (kept apart from service time). */
    std::uint64_t lagNs() const { return issueNs - scheduledNs; }
    /** Time inside the service call alone. */
    std::uint64_t serviceNs() const { return doneNs - issueNs; }
};

/**
 * Freshness probes, one in flight at a time.
 *
 * Each probe adds one edge from a vertex only the generator writes; the
 * probe is graph-visible when a degree read shows the new out-degree and
 * algorithm-visible when an algorithm read carries an epoch at least the
 * epoch of that degree read. Both times are measured from the probe's
 * *actual* offer. Probes are paced by a schedule, but when a probe takes
 * longer than the gap the next one is offered late, and that lateness is
 * recorded apart (offerLagMs) — timing freshness from the schedule would
 * add the accumulated lateness of every earlier probe to each sample.
 *
 * The gaps are drawn uniformly from [gap/2, 3*gap/2), seeded, so that
 * offers keep no phase of a periodic system they measure: with a fixed
 * gap near a multiple of the epoch loop's period (40 ms against ~13 ms
 * epochs), every probe would land at the same point of an epoch.
 */
class ProbeTracker
{
  public:
    ProbeTracker(std::uint64_t startNs, std::uint64_t meanGapNs,
                 std::uint64_t seed)
        : due_(startNs), gap_(meanGapNs), rng_(seed)
    {}

    /** True when no probe is in flight and the next one is due. */
    bool
    wantsOffer(std::uint64_t nowNs) const
    {
        return state_ == State::Idle && nowNs >= due_;
    }

    /** Probe accepted by the service at @p offerNs; it is visible once
        the probe vertex's out-degree reaches @p expectedDegree. */
    void
    offered(std::uint64_t offerNs, std::uint64_t expectedDegree)
    {
        offerLagMs_.push_back(double(offerNs - due_) * 1e-6);
        due_ += gap_ / 2 + rng_.below(gap_);
        ++offered_;
        offerNs_ = offerNs;
        expected_ = expectedDegree;
        state_ = State::AwaitGraph;
    }

    bool awaitingGraph() const { return state_ == State::AwaitGraph; }
    bool awaitingAlgo() const { return state_ == State::AwaitAlgo; }
    bool inFlight() const { return state_ != State::Idle; }

    /** A degree read of the probe vertex returned at @p nowNs. */
    void
    observeDegree(std::uint64_t nowNs, std::uint64_t degree,
                  std::uint64_t epoch)
    {
        if (state_ != State::AwaitGraph || degree < expected_)
            return;
        freshMs_.push_back(double(nowNs - offerNs_) * 1e-6);
        visibleEpoch_ = epoch;
        state_ = State::AwaitAlgo;
    }

    /** An algorithm read carrying @p epoch returned at @p nowNs. */
    void
    observeAlgoEpoch(std::uint64_t nowNs, std::uint64_t epoch)
    {
        if (state_ != State::AwaitAlgo || epoch < visibleEpoch_)
            return;
        algoFreshMs_.push_back(double(nowNs - offerNs_) * 1e-6);
        state_ = State::Idle;
    }

    const std::vector<double> &freshMs() const { return freshMs_; }
    const std::vector<double> &algoFreshMs() const { return algoFreshMs_; }
    const std::vector<double> &offerLagMs() const { return offerLagMs_; }
    std::uint64_t offeredCount() const { return offered_; }

  private:
    enum class State { Idle, AwaitGraph, AwaitAlgo };

    std::uint64_t due_;
    std::uint64_t gap_;
    saga::Rng rng_;
    std::uint64_t offered_ = 0;
    State state_ = State::Idle;
    std::uint64_t offerNs_ = 0;
    std::uint64_t expected_ = 0;
    std::uint64_t visibleEpoch_ = 0;
    std::vector<double> freshMs_;
    std::vector<double> algoFreshMs_;
    std::vector<double> offerLagMs_;
};

} // namespace perfbench

#endif // PERFBENCH_OPEN_LOOP_H_
