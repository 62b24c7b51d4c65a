/**
 * @file
 * serve-mixed: GraphService under an open-loop mix of reads, updates and
 * freshness probes, all sent from one generator thread through the
 * public service API.
 */

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common.h"
#include "gen/profiles.h"
#include "open_loop.h"
#include "platform/rng.h"
#include "saga/stream_source.h"
#include "serve/service.h"
#include "telemetry/telemetry.h"

namespace perfbench {
namespace {

using saga::Edge;
using saga::NodeId;

// The traffic, derived as bench/bench_serve.cc derives its moderate
// runs from a closed-loop calibration of this configuration (NOTES.md
// records the measurement): reads at 1% of the mixed read capacity
// (~3.3M reads/s), one update offer per nine reads, and update edges at
// ~25% of the drain rate a closed-loop flood achieved (~400K edges/s),
// so nothing is shed at seed.
constexpr double kBootShare = 0.80;                ///< of the RMAT edge list
constexpr std::uint64_t kReadGapNs = 30'000;       ///< 33.3K reads/s
constexpr std::uint64_t kUpdateGapNs = 270'000;    ///< 3.7K offers/s
constexpr std::size_t kUpdateEdges = 27;           ///< 100K edges/s
constexpr std::uint64_t kProbeGapNs = 40'000'000;  ///< mean; <= 25/s
constexpr std::uint64_t kProbePollNs = 20'000;     ///< probe read cadence
constexpr std::uint64_t kStatsPollNs = 10'000'000; ///< stats() cadence
constexpr std::uint64_t kProbeDrainNs = 5'000'000'000;
constexpr int kWarmupEpochs = 5;
constexpr int kDrainRounds = 201; ///< edges_per_s is their median

enum ReadKind { kDegree, kNeighbors, kBfs, kTopK, kNumKinds };
const char *const kKindName[kNumKinds] = {"degree", "neighbors", "bfs",
                                          "topk"};

/** bench_serve's read mix: 40% degree, 30% neighbors, 20% bfs, 10% topk. */
ReadKind
pickKind(saga::Rng &rng)
{
    const std::uint64_t r = rng.below(10);
    return r < 4 ? kDegree : r < 7 ? kNeighbors : r < 9 ? kBfs : kTopK;
}

struct Inputs
{
    saga::DatasetProfile profile;
    std::vector<Edge> boot;
    std::vector<Edge> updates; ///< offered cyclically, kUpdateEdges a time
};

Inputs
makeInputs(std::uint64_t seed)
{
    Inputs in;
    in.profile = *saga::findProfile("rmat");
    std::vector<Edge> edges = in.profile.generate(seed);
    saga::shuffleEdges(edges, seed * 0x9E3779B97F4A7C15ULL + 1);
    const std::size_t boot =
        static_cast<std::size_t>(kBootShare * double(edges.size()));
    in.updates.assign(edges.begin() + boot, edges.end());
    edges.resize(boot);
    in.boot = std::move(edges);
    return in;
}

saga::ServeConfig
serveConfig(const Inputs &in)
{
    saga::ServeConfig cfg;
    cfg.ds = saga::DsKind::Hybrid;
    cfg.directed = in.profile.directed;
    cfg.threads = kThreads - 1; // + the generator thread = kThreads busy
    cfg.bfsSource = in.profile.source;
    return cfg;
}

/** Cursor over the update edges; wraps to re-offers when exhausted. */
class UpdateFeed
{
  public:
    explicit UpdateFeed(const std::vector<Edge> &edges) : edges_(edges) {}

    const Edge *
    next()
    {
        if (at_ + kUpdateEdges > edges_.size())
            at_ = 0;
        const Edge *chunk = edges_.data() + at_;
        at_ += kUpdateEdges;
        return chunk;
    }

  private:
    const std::vector<Edge> &edges_;
    std::size_t at_ = 0;
};

/** Edges the service accepted, as a set: the oracle's edge count. */
class EdgeSet
{
  public:
    void
    add(const Edge *edges, std::size_t n)
    {
        for (std::size_t i = 0; i < n; ++i)
            set_.insert((std::uint64_t(edges[i].src) << 32) | edges[i].dst);
    }
    std::uint64_t size() const { return set_.size(); }

  private:
    std::unordered_set<std::uint64_t> set_;
};

/**
 * makeService through bootstrap, the warm-up epochs and start(); the
 * times go to @p setups. @p accepted receives the edges loaded.
 */
std::unique_ptr<saga::GraphService>
setUp(const Inputs &in, UpdateFeed &feed, EdgeSet &accepted,
      SetupLog &setups)
{
    accepted.add(in.boot.data(), in.boot.size());
    SetupTimes t;
    const std::uint64_t t0 = nowNs();
    auto svc = saga::makeService(serveConfig(in));
    svc->bootstrap(in.boot);
    const std::uint64_t t1 = nowNs();
    for (int e = 0; e < kWarmupEpochs; ++e) {
        const Edge *chunk = feed.next();
        if (!svc->offerUpdate(chunk, kUpdateEdges))
            throw std::runtime_error("warm-up update shed");
        accepted.add(chunk, kUpdateEdges);
        svc->stepEpoch();
        if (e == 0)
            t.firstCompute = double(nowNs() - t1) * 1e-9;
    }
    svc->start();
    t.total = double(nowNs() - t0) * 1e-9;
    t.load = double(t1 - t0) * 1e-9;
    setups.add(t);
    return svc;
}

/** Everything one generator pass observed. */
struct PassResult
{
    std::vector<RequestTimes> reads[kNumKinds];
    std::vector<double> offerUs;
    std::vector<double> freshMs, algoFreshMs;
    std::uint64_t backlogMax = 0;
};

/** Reply checks: per-class epochs never go backwards, and so on. */
struct ReplyChecks
{
    std::uint64_t pointEpoch = 0;
    std::uint64_t algoEpoch = 0;
    std::uint64_t bad = 0;
    std::string first;

    void
    fail(const std::string &what)
    {
        if (bad++ == 0)
            first = what;
    }

    void
    point(std::uint64_t epoch)
    {
        if (epoch < pointEpoch)
            fail("point-read epoch went backwards");
        pointEpoch = std::max(pointEpoch, epoch);
    }

    void
    algo(std::uint64_t epoch)
    {
        if (epoch < algoEpoch)
            fail("algorithm-read epoch went backwards");
        algoEpoch = std::max(algoEpoch, epoch);
    }
};

/** The probe vertex and its edges: only the generator writes them. */
struct ProbeSource
{
    NodeId vertex = 0;
    NodeId targets = 1;
    std::uint64_t sent = 0;

    Edge
    next()
    {
        Edge e;
        e.src = vertex;
        e.dst = NodeId(sent % targets);
        ++sent;
        return e;
    }
};

/**
 * Run the open-loop generator for @p seconds: reads on kReadGapNs,
 * updates on kUpdateGapNs, and one freshness probe in flight at a time.
 */
PassResult
generate(saga::GraphService &svc, const Inputs &in, double seconds,
         saga::Rng &rng, UpdateFeed &feed, ProbeSource &probe,
         EdgeSet &accepted, ReplyChecks &checks, SpanLog &spans,
         Report &report)
{
    PassResult out;
    for (auto &r : out.reads)
        r.reserve(static_cast<std::size_t>(seconds * 1e9 / kReadGapNs / 2));
    const NodeId n = NodeId(in.profile.numNodes);
    const std::uint64_t t0 = nowNs();
    const std::uint64_t deadline =
        t0 + static_cast<std::uint64_t>(seconds * 1e9);
    Schedule reads(t0, kReadGapNs);
    Schedule updates(t0 + kUpdateGapNs / 2, kUpdateGapNs);
    ProbeTracker probes(t0, kProbeGapNs, rng());
    std::uint64_t probeOfferNs = 0, nextPoll = t0, nextStats = t0;
    std::uint64_t reqId = 0;

    auto pollProbe = [&](std::uint64_t now) {
        if (probes.awaitingGraph()) {
            const saga::DegreeReply d = svc.degree(probe.vertex);
            checks.point(d.epoch);
            if (d.outDegree > probe.sent)
                checks.fail("probe vertex degree exceeds probes sent");
            probes.observeDegree(nowNs(), d.outDegree, d.epoch);
        } else if (probes.awaitingAlgo()) {
            const saga::BfsReply b = svc.bfsDistance(probe.vertex);
            checks.algo(b.epoch);
            const std::uint64_t seen = nowNs();
            probes.observeAlgoEpoch(seen, b.epoch);
            if (!probes.inFlight())
                spans.add("probe", ++reqId, 0, probeOfferNs, seen);
        }
        nextPoll = now + kProbePollNs;
    };

    while (true) {
        const std::uint64_t now = nowNs();
        if (now >= deadline)
            break;
        if (reads.isDue(now)) {
            report.attempt(1);
            RequestTimes t;
            t.scheduledNs = reads.take();
            const ReadKind kind = pickKind(rng);
            const NodeId v = NodeId(rng.below(n));
            t.issueNs = nowNs();
            switch (kind) {
              case kDegree:
                checks.point(svc.degree(v).epoch);
                break;
              case kNeighbors: {
                const saga::NeighborsReply r = svc.neighbors(v);
                checks.point(r.epoch);
                if (r.degree != r.neighbors.size())
                    checks.fail("neighbors size != degree");
                break;
              }
              case kBfs:
                checks.algo(svc.bfsDistance(v).epoch);
                break;
              case kTopK: {
                const saga::TopKReply r = svc.pageRankTopK();
                checks.algo(r.epoch);
                if (r.entries.empty() ||
                    !std::is_sorted(r.entries.begin(), r.entries.end(),
                                    [](const saga::TopKEntry &a,
                                       const saga::TopKEntry &b) {
                                        return a.rank > b.rank;
                                    }))
                    checks.fail("top-k empty or not sorted by rank");
                break;
              }
              default:
                break;
            }
            t.doneNs = nowNs();
            spans.add(kKindName[kind], ++reqId, 0, t.scheduledNs, t.doneNs);
            out.reads[kind].push_back(t);
            continue;
        }
        if (updates.isDue(now)) {
            updates.take();
            report.attempt(1);
            const Edge *chunk = feed.next();
            const std::uint64_t a = nowNs();
            const bool ok = svc.offerUpdate(chunk, kUpdateEdges);
            const std::uint64_t b = nowNs();
            spans.add("offerUpdate", ++reqId, 0, a, b);
            out.offerUs.push_back(double(b - a) * 1e-3);
            if (ok) {
                accepted.add(chunk, kUpdateEdges);
            } else {
                report.fail(1);
            }
            continue;
        }
        if (probes.wantsOffer(now)) {
            const Edge e = probe.next();
            report.attempt(1);
            probeOfferNs = nowNs();
            if (svc.offerUpdate(&e, 1)) {
                accepted.add(&e, 1);
                probes.offered(probeOfferNs, probe.sent);
            } else {
                --probe.sent; // shed: offer the same edge again
                report.fail(1);
            }
            nextPoll = now;
            continue;
        }
        if (probes.inFlight() && now >= nextPoll) {
            pollProbe(now);
            continue;
        }
        if (now >= nextStats) {
            out.backlogMax =
                std::max(out.backlogMax, svc.stats().backlogEdges);
            nextStats = now + kStatsPollNs;
        }
        // Nothing is due: give the vCPU to a service thread if one is
        // waiting for it. Spinning through contention for the host's
        // vCPUs slowed the epoch loop (freshness p50 6 -> 13 ms).
        std::this_thread::yield();
    }

    // The probe still in flight must become visible, or it failed.
    const std::uint64_t giveUp = nowNs() + kProbeDrainNs;
    while (probes.inFlight() && nowNs() < giveUp)
        pollProbe(nowNs());
    if (probes.inFlight())
        checks.fail("a probe never became visible"); // counted via checks
    out.freshMs = probes.freshMs();
    out.algoFreshMs = probes.algoFreshMs();
    return out;
}

/** Read latencies of all classes, in order of scheduled arrival. */
std::vector<double>
latencyMs(const PassResult &p)
{
    std::vector<RequestTimes> all;
    for (const auto &kind : p.reads)
        all.insert(all.end(), kind.begin(), kind.end());
    std::sort(all.begin(), all.end(),
              [](const RequestTimes &a, const RequestTimes &b) {
                  return a.scheduledNs < b.scheduledNs;
              });
    std::vector<double> out;
    for (const RequestTimes &t : all)
        out.push_back(nsToMs(t.latencyNs()));
    return out;
}

/**
 * Read latency from the scheduled arrival, all classes pooled. Reads
 * take well under a microsecond, so on a shared host their tail is
 * mostly scheduler and hypervisor stalls: it is reported, not gated.
 */
void
addReadLatency(const PassResult &p, const std::string &prefix,
               Report &report)
{
    std::vector<double> us = latencyMs(p);
    for (double &v : us)
        v *= 1e3;
    report.addDist(prefix + "read", summarize(us), "us");
}

/** Epoch-loop breakdown recovered from the telemetry trace events. */
struct EpochLayers
{
    std::vector<double> epochMs, stageMs, publishMs, refreshMs;
    Coverage cover{90.0}; // the epoch loop's queue drain is the rest
};

EpochLayers
epochLayers(const std::vector<saga::telemetry::TraceEvent> &events)
{
    using saga::telemetry::Phase;
    EpochLayers out;
    // Events are per-thread ordered; only the epoch-loop thread records
    // serve/epoch spans, and stage/publish/refresh nest directly in them.
    std::uint32_t tid = ~0u;
    for (const auto &e : events) {
        if (e.phase == Phase::ServeEpoch) {
            tid = e.tid;
            break;
        }
    }
    std::vector<std::pair<Phase, std::uint64_t>> stack;
    double stage = 0, publish = 0, refresh = 0;
    bool busy = false;
    for (const auto &e : events) {
        if (e.tid != tid)
            continue;
        if (e.type == 'B') {
            stack.emplace_back(e.phase, e.tsNs);
            continue;
        }
        if (stack.empty() || stack.back().first != e.phase)
            continue; // unmatched end (trace began mid-span)
        const double ms = nsToMs(e.tsNs - stack.back().second);
        stack.pop_back();
        const bool child = stack.size() == 1 &&
                           stack.front().first == Phase::ServeEpoch;
        if (child && e.phase == Phase::ServeStage)
            stage += ms, busy = true;
        else if (child && e.phase == Phase::ServePublish)
            publish += ms, busy = true;
        else if (child && e.phase == Phase::ServeRefresh)
            refresh += ms, busy = true;
        else if (stack.empty() && e.phase == Phase::ServeEpoch) {
            if (busy) { // idle polls (nothing drained or refreshed) skipped
                out.epochMs.push_back(ms);
                out.stageMs.push_back(stage);
                out.publishMs.push_back(publish);
                out.refreshMs.push_back(refresh);
                out.cover.add(stage + publish + refresh, ms);
            }
            stage = publish = refresh = 0;
            busy = false;
        }
    }
    return out;
}

void
addLayers(const PassResult &plain, const PassResult &traced,
          std::uint64_t shedEdges, Report &report)
{
    using saga::telemetry::Counter;
    for (int k = 0; k < kNumKinds; ++k) {
        std::vector<double> us;
        for (const RequestTimes &t : traced.reads[k])
            us.push_back(double(t.serviceNs()) * 1e-3);
        const Dist d = summarize(us);
        report.add(std::string("serve.read_service_us.") + kKindName[k],
                   d.p50, "us",
                   "p50 from issue to reply, n=" + std::to_string(d.n));
    }
    report.add("serve.offer_us", summarize(traced.offerUs).p50, "us",
               "p50 offerUpdate call");

    const saga::telemetry::MetricsSnapshot snap = saga::telemetry::snapshot();
    const EpochLayers ep = epochLayers(saga::telemetry::traceSnapshot());
    const std::string n = "n=" + std::to_string(ep.epochMs.size());
    report.add("serve.epoch_ms", summarize(ep.epochMs).p50, "ms",
               "p50 busy epoch, " + n);
    report.add("serve.stage_ms", summarize(ep.stageMs).p50, "ms",
               "p50 per busy epoch, " + n);
    report.add("serve.publish_ms", summarize(ep.publishMs).p50, "ms",
               "p50 per busy epoch (both reader-excluded windows), " + n);
    report.add("serve.refresh_ms", summarize(ep.refreshMs).p50, "ms",
               "p50 per busy epoch, " + n);
    report.add("serve.edges_per_epoch",
               counterValue(snap, Counter::ServeUpdateEdges) /
                   std::max(1.0, counterValue(snap, Counter::ServeEpochs)),
               "count", "serve.update_edges / serve.epochs");
    report.add("serve.shed_edges", double(shedEdges), "count",
               "stats().shedEdges at the end");
    report.add("serve.backlog_max",
               double(std::max(plain.backlogMax, traced.backlogMax)), "count",
               "max stats().backlogEdges, polled every 10 ms");

    addReadLatency(traced, "serve.", report);

    std::vector<double> lagUs;
    for (const auto &kind : traced.reads)
        for (const RequestTimes &t : kind)
            lagUs.push_back(double(t.lagNs()) * 1e-3);
    const Dist lag = summarize(lagUs);
    report.add("gen.lag_p50_us", lag.p50, "us",
               "issue - scheduled, n=" + std::to_string(lag.n));
    report.add("gen.lag_max_us", lag.max, "us", "issue - scheduled");

    report.add("trace.overhead_pct",
               overheadPct(latencyMs(plain), latencyMs(traced)), "%",
               "read p50, first traced vs last untraced tenth");
    report.add("trace.layer_cover_min_pct", ep.cover.minPct, "%",
               "min over busy epochs of (stage + publish + refresh) / epoch");
    report.check("layer_sum", ep.cover.ok(),
                 layerSumDetail("stage + publish + refresh", "busy epoch",
                                ep.cover));
}

/**
 * The service's drain rate, in edges per second: with the background
 * loop stopped, offer one epoch's worth (epochMaxEdges) of the update
 * edges at a time and time the synchronous epochs that apply them
 * (stage, publish, refresh). The open-loop run has offered every update
 * edge by then, so these are re-offers, as most of its own offers are,
 * and the graph keeps its size from round to round. Median over
 * kDrainRounds.
 */
double
drainRate(saga::GraphService &svc, const Inputs &in, EdgeSet &accepted,
          Report &report)
{
    const std::size_t size = serveConfig(in).epochMaxEdges;
    std::vector<Edge> batch;
    std::vector<double> rates;
    for (int round = 0; round < kDrainRounds; ++round) {
        batch.clear();
        for (std::size_t i = 0; i < size; ++i)
            batch.push_back(
                in.updates[(round * size + i) % in.updates.size()]);
        report.attempt(1);
        if (!svc.offerUpdate(batch.data(), batch.size())) {
            report.fail(1);
            report.check("drain", false, "a drain offer was shed");
            return 0;
        }
        accepted.add(batch.data(), batch.size());
        const std::uint64_t t0 = nowNs();
        while (svc.stepEpoch()) {
        }
        rates.push_back(double(batch.size()) / (double(nowNs() - t0) * 1e-9));
    }
    return median(std::move(rates));
}

} // namespace

void
runServe(const Options &opt, Report &report)
{
    const Inputs in = makeInputs(opt.seed);
    // Set-up is timed kSetupReps times: once for the service that is
    // measured, and again after it is gone. (A service set up right after
    // another one was torn down showed ~0.6 s of slow epochs.)
    SetupLog setups;
    UpdateFeed feed(in.updates);
    EdgeSet accepted;
    std::unique_ptr<saga::GraphService> svc =
        setUp(in, feed, accepted, setups);

    saga::Rng rng(opt.seed ^ 0x5EB5EB5EB5EB5EB5ULL);
    ProbeSource probe;
    probe.vertex = NodeId(in.profile.numNodes); // a vertex no input uses
    probe.targets = NodeId(in.profile.numNodes);
    ReplyChecks checks;
    const double plainSeconds = opt.trace ? opt.seconds / 2 : opt.seconds;
    // One span per read, offer and probe of the traced half, plus 10%.
    const double spansPerS = 1e9 / double(kReadGapNs) +
                             1e9 / double(kUpdateGapNs) +
                             1e9 / double(kProbeGapNs);
    SpanLog noSpans(false, 0);
    SpanLog spans(opt.trace, static_cast<std::size_t>(
                                 1.1 * spansPerS *
                                 (opt.seconds - plainSeconds)) +
                                 1024);
    const PassResult plain = generate(*svc, in, plainSeconds, rng, feed,
                                      probe, accepted, checks, noSpans,
                                      report);
    // Before the samples are summarized, so that the copies made for
    // that do not count.
    const double rssMb = peakRssMb();

    // A served update is "done" for its user when the algorithm results
    // reflect it (lat_*) and visible to point reads earlier (fresh_*):
    // the same two moments a stream batch reaches at the end of its
    // compute and update phases.
    report.addDist("lat", summarize(plain.algoFreshMs), "ms");
    report.addDist("fresh", summarize(plain.freshMs), "ms");
    addReadLatency(plain, "", report);
    if (opt.trace) {
        saga::telemetry::reset();
        saga::telemetry::setEnabled(true);
        saga::telemetry::setTraceEnabled(true);
        const PassResult traced =
            generate(*svc, in, opt.seconds - plainSeconds, rng, feed, probe,
                     accepted, checks, spans, report);
        svc->stop(); // telemetry is read only while quiescent
        saga::telemetry::setTraceEnabled(false);
        saga::telemetry::setEnabled(false);
        addLayers(plain, traced, svc->stats().shedEdges, report);
        report.add("trace.spans", double(spans.size()), "count",
                   "harness spans kept in memory");
    }
    svc->stop();
    report.add("peak_rss_mb", rssMb, "MB",
               "getrusage ru_maxrss after the untraced pass");

    // Drain what is still queued, measure the drain rate, then compare
    // with the reference count.
    while (svc->stepEpoch()) {
    }
    report.add("edges_per_s", drainRate(*svc, in, accepted, report),
               "1/s",
               "drain rate: median of " + std::to_string(kDrainRounds) +
                   " synchronous epochs of " +
                   std::to_string(serveConfig(in).epochMaxEdges) +
                   " re-offered edges, edges / (stage + publish + refresh)");
    const saga::ServeStats st = svc->stats();
    report.fail(checks.bad);
    report.check("replies", checks.bad == 0,
                 checks.bad ? std::to_string(checks.bad) +
                                  " inconsistent replies, first: " +
                                  checks.first
                            : "degree == neighbors.size(), per-class epochs "
                              "monotone, every probe visible");
    report.check("oracle.edges",
                 st.backlogEdges == 0 && st.graphEdges == accepted.size(),
                 std::to_string(st.graphEdges) + " graph edges, reference " +
                     std::to_string(accepted.size()) + " (bootstrap + " +
                     "accepted updates and probes)");
    report.check("shed", st.shedEdges == 0,
                 std::to_string(st.shedEdges) + " edges shed");

    report.info("boot_edges", double(in.boot.size()));
    report.info("read_rate_per_s", 1e9 / double(kReadGapNs));
    report.info("update_edges_per_s",
                1e9 / double(kUpdateGapNs) * double(kUpdateEdges));
    report.info("probe_gap_ms", double(kProbeGapNs) * 1e-6);
    report.info("probes", double(probe.sent));
    report.info("service_threads", double(serveConfig(in).threads));
    report.info("graph_epochs", double(st.graphEpoch));

    svc.reset();
    for (int rep = 1; rep < kSetupReps; ++rep) {
        UpdateFeed repFeed(in.updates);
        EdgeSet repAccepted;
        setUp(in, repFeed, repAccepted, setups);
    }
    setups.report(report, "median bootstrap (load + epoch-0 compute)",
                  "median first synchronous epoch");
    if (spans.on() && !opt.traceOut.empty())
        report.check("trace.write", spans.write(opt.traceOut), opt.traceOut);
}

} // namespace perfbench
