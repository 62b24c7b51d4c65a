/**
 * @file
 * Stream workloads: the paper's update/compute alternation (Eq. 1) over a
 * near-stationary graph. Most of the graph is preloaded at set-up; the
 * rest streams as many small equal batches through the public
 * StreamingRunner API.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.h"
#include "ds/reference.h"
#include "gen/profiles.h"
#include "platform/rng.h"
#include "platform/thread_pool.h"
#include "saga/driver.h"
#include "saga/edge_batch.h"
#include "saga/stream_source.h"
#include "telemetry/telemetry.h"

namespace perfbench {
namespace {

using saga::AlgKind;
using saga::DsKind;

struct StreamSpec
{
    const char *name;
    const char *profile; ///< src/gen dataset profile
    double scale;        ///< profile scale factor
    double edgeFactor;   ///< edges per vertex, relative to the profile
    DsKind ds;
    AlgKind alg;
    double preloadShare; ///< share of the edge list loaded at set-up
    std::size_t newPerBatch;     ///< not-yet-seen edges in each batch
    std::size_t reofferPerBatch; ///< re-offered preload edges per batch
    std::size_t warmupBatches;   ///< streamed during set-up, not measured
};

// Why these two: see NOTES.md. inc-pr-rmat spends nearly all of a batch
// in the INC PageRank engine; ingest-talk spends most of it in the
// store's find-or-insert path on the out-hub of a heavy-tailed graph.
// Its batches are mostly re-offers of edges already in the graph (a
// talk user writing to the same page again), so that a run of many
// seconds ingests millions of edges while the graph stays near its
// preloaded size.
const StreamSpec kStreams[] = {
    {"inc-pr-rmat", "rmat", 2.0, 2.0, DsKind::AC, AlgKind::PR, 0.80, 16, 0,
     20},
    {"ingest-talk", "talk", 8.0, 1.0, DsKind::AS, AlgKind::BFS, 0.80, 8, 2040,
     20},
};

const StreamSpec &
findSpec(const std::string &name)
{
    for (const StreamSpec &s : kStreams) {
        if (name == s.name)
            return s;
    }
    throw std::invalid_argument("unknown stream workload: " + name);
}

/**
 * The seeded input of one run. Batch k holds the k-th slice of the
 * not-yet-seen edges plus reofferPerBatch edges drawn from the preload;
 * batches are built on demand (outside the timed calls) because the
 * whole stream would not fit in memory.
 */
class StreamPlan
{
  public:
    StreamPlan(const StreamSpec &spec, std::uint64_t seed)
        : spec_(spec), seed_(seed),
          profile_(saga::findProfile(spec.profile)->scaled(spec.scale))
    {
        profile_.numEdges = static_cast<std::uint64_t>(
            double(profile_.numEdges) * spec.edgeFactor);
        std::vector<saga::Edge> edges = profile_.generate(seed);
        saga::shuffleEdges(edges, seed * 0x9E3779B97F4A7C15ULL + 1);
        const std::size_t pre = static_cast<std::size_t>(
            spec.preloadShare * double(edges.size()));
        fresh_.assign(edges.begin() + pre, edges.end());
        edges.resize(pre);
        preload_ = saga::EdgeBatch(std::move(edges));
    }

    const saga::DatasetProfile &profile() const { return profile_; }
    const saga::EdgeBatch &preload() const { return preload_; }
    std::size_t batchCount() const { return fresh_.size() / spec_.newPerBatch; }
    std::size_t
    batchEdges() const
    {
        return spec_.newPerBatch + spec_.reofferPerBatch;
    }

    saga::EdgeBatch
    batch(std::size_t k) const
    {
        std::vector<saga::Edge> edges(
            fresh_.begin() + k * spec_.newPerBatch,
            fresh_.begin() + (k + 1) * spec_.newPerBatch);
        saga::Rng rng(seed_ ^ (0xB5AD4ECEDA1CE2A9ULL * (k + 1)));
        const std::vector<saga::Edge> &pre = preload_.edges();
        for (std::size_t i = 0; i < spec_.reofferPerBatch; ++i)
            edges.push_back(pre[rng.below(pre.size())]);
        return saga::EdgeBatch(std::move(edges));
    }

    /**
     * The edge set after the first @p n batches: re-offers repeat edges
     * of the preload, so they add nothing to it.
     */
    saga::EdgeBatch
    ingested(std::size_t n) const
    {
        std::vector<saga::Edge> all = preload_.edges();
        all.insert(all.end(), fresh_.begin(),
                   fresh_.begin() + n * spec_.newPerBatch);
        return saga::EdgeBatch(std::move(all));
    }

  private:
    const StreamSpec &spec_;
    std::uint64_t seed_;
    saga::DatasetProfile profile_;
    saga::EdgeBatch preload_;
    std::vector<saga::Edge> fresh_;
};

saga::RunConfig
runConfig(const StreamSpec &spec, const saga::DatasetProfile &profile)
{
    saga::RunConfig cfg;
    cfg.ds = spec.ds;
    cfg.alg = spec.alg;
    cfg.model = saga::ModelKind::INC;
    cfg.directed = profile.directed;
    cfg.threads = kThreads;
    cfg.ctx.source = profile.source;
    return cfg;
}

/**
 * makeRunner through preload, first compute and the warm-up batches;
 * the times go to @p setups.
 */
std::unique_ptr<saga::StreamingRunner>
setUp(const StreamSpec &spec, const StreamPlan &plan,
      const std::vector<saga::EdgeBatch> &warmup, SetupLog &setups)
{
    SetupTimes t;
    const std::uint64_t t0 = nowNs();
    auto runner = saga::makeRunner(runConfig(spec, plan.profile()));
    const std::uint64_t t1 = nowNs();
    runner->updatePhase(plan.preload());
    const std::uint64_t t2 = nowNs();
    runner->computePhase(plan.preload());
    const std::uint64_t t3 = nowNs();
    for (const saga::EdgeBatch &batch : warmup) {
        runner->updatePhase(batch);
        runner->computePhase(batch);
    }
    t.total = double(nowNs() - t0) * 1e-9;
    t.load = double(t2 - t1) * 1e-9;
    t.firstCompute = double(t3 - t2) * 1e-9;
    setups.add(t);
    return runner;
}

/** One measured batch: harness timestamps and the phases' own times. */
struct BatchRecord
{
    std::uint64_t t0 = 0; ///< before updatePhase
    std::uint64_t t1 = 0; ///< after updatePhase
    std::uint64_t t2 = 0; ///< after computePhase
    double updateS = 0;   ///< updatePhase's returned duration
    double computeS = 0;  ///< computePhase's returned duration
};

/**
 * Stream batches [next, ...) until @p seconds elapse or the stream ends.
 * Advances @p next; a phase exception counts as a failure and stops.
 */
std::vector<BatchRecord>
measure(saga::StreamingRunner &runner, const StreamPlan &plan,
        std::size_t &next, double seconds, SpanLog &spans, Report &report)
{
    std::vector<BatchRecord> out;
    out.reserve(1 << 14);
    const std::uint64_t deadline =
        nowNs() + static_cast<std::uint64_t>(seconds * 1e9);
    while (next < plan.batchCount() && nowNs() < deadline) {
        const saga::EdgeBatch batch = plan.batch(next);
        BatchRecord r;
        report.attempt(1);
        try {
            r.t0 = nowNs();
            r.updateS = runner.updatePhase(batch);
            r.t1 = nowNs();
            r.computeS = runner.computePhase(batch);
            r.t2 = nowNs();
        } catch (const std::exception &e) {
            report.fail(1);
            report.check("phase", false, e.what());
            break;
        }
        const std::uint64_t id = next + 1;
        spans.add("batch", id, 0, r.t0, r.t2);
        spans.add("updatePhase", id, id, r.t0, r.t1);
        spans.add("computePhase", id, id, r.t1, r.t2);
        out.push_back(r);
        ++next;
    }
    if (next == plan.batchCount())
        report.info("stream_exhausted", 1.0);
    return out;
}

struct StreamFigures
{
    Dist batchMs;
    Dist updateMs;
    double edgesPerS = 0;
};

/**
 * Batches per throughput part: edges_per_s is the median over parts.
 * Parts of ~0.3 s keep a burst of vCPU stalls inside a few parts, where
 * the median ignores it. In one set of ten seeds, parts of 1000 batches
 * (~3 s) spread 0.21 (ingest-talk) and 0.33 (inc-pr-rmat), against 0.10
 * and 0.24 for the batch p50.
 */
constexpr std::size_t kRatePart = 100;

StreamFigures
figures(const std::vector<BatchRecord> &recs, std::size_t batchEdges)
{
    std::vector<double> batch, update, rates;
    for (const BatchRecord &r : recs) {
        batch.push_back(nsToMs(r.t2 - r.t0));
        update.push_back(nsToMs(r.t1 - r.t0));
    }
    // Streamed edges / streaming wall time, per part of kRatePart
    // batches (the last part takes the remainder), median over parts.
    const std::size_t parts = std::max<std::size_t>(1, recs.size() / kRatePart);
    for (std::size_t i = 0; i < parts && !recs.empty(); ++i) {
        const std::size_t first = i * kRatePart;
        const std::size_t last =
            i + 1 == parts ? recs.size() : first + kRatePart;
        const double wall = double(recs[last - 1].t2 - recs[first].t0) * 1e-9;
        rates.push_back(double((last - first) * batchEdges) / wall);
    }
    StreamFigures f;
    f.batchMs = summarize(batch);
    f.updateMs = summarize(update);
    f.edgesPerS = median(rates);
    return f;
}

/**
 * Bounds of the PageRank oracle, relative to the ranks, because the unit
 * test's absolute bounds (mean |INC-FS| < 2e-4, max < 5e-3 on 400
 * vertices) cannot fail at ~10^5 vertices, where ranks average ~1e-5.
 * Measured over four seeds after a 30-second run: L1 0.019-0.022 of the
 * FS rank mass, worst vertex 0.20-0.43. Ranks left as they were after the
 * preload read 0.07 L1 by then, all-zero ranks 1.0, and a vertex left at
 * the initial 1/n where FS reads ~(1-d)/n is off by 0.85.
 */
constexpr double kPrMaxL1 = 0.04;
constexpr double kPrMaxVertex = 0.75;

/**
 * INC PageRank vs FS PageRank on another store fed the same edges. A
 * vertex no edge touches is in no batch, so the INC engine never
 * recomputes it: it must hold the engine's initial value 1/m exactly (m:
 * the vertex count when it entered), where FS gives it (1-d)/n. That
 * divergence of the two models is checked and reported, not bounded.
 */
void
checkPageRank(const StreamSpec &spec, const StreamPlan &plan, std::size_t n,
              const saga::StreamingRunner &runner, Report &report)
{
    saga::RunConfig cfg = runConfig(spec, plan.profile());
    cfg.ds = DsKind::AS;
    cfg.model = saga::ModelKind::FS;
    auto fs = saga::makeRunner(cfg);
    const saga::EdgeBatch all = plan.ingested(n);
    fs->updatePhase(all);
    fs->computePhase(all);
    const std::vector<double> want = fs->values();
    const std::vector<double> got = runner.values();
    report.check("oracle.edges", fs->numEdges() == runner.numEdges(),
                 std::to_string(runner.numEdges()) + " edges, FS store " +
                     std::to_string(fs->numEdges()));
    if (want.size() != got.size()) {
        report.check("oracle.pr", false, "vertex counts differ");
        return;
    }
    const std::size_t nodes = want.size();
    std::vector<char> touched(nodes, 0);
    std::size_t preloadNodes = 0;
    for (const saga::Edge &e : all.edges())
        touched[e.src] = touched[e.dst] = 1;
    for (const saga::Edge &e : plan.preload().edges())
        preloadNodes = std::max<std::size_t>(
            preloadNodes, std::max(e.src, e.dst) + std::size_t{1});

    double l1 = 0, mass = 0, worst = 0;
    std::size_t untouched = 0, untouchedBad = 0;
    for (std::size_t v = 0; v < nodes; ++v) {
        if (!touched[v]) {
            ++untouched;
            const double m = std::round(1.0 / got[v]);
            untouchedBad += !(m >= double(preloadNodes) &&
                              m <= double(nodes) && got[v] == 1.0 / m);
            continue;
        }
        const double d = std::fabs(want[v] - got[v]);
        l1 += d;
        mass += want[v];
        worst = std::max(worst, d / std::max(want[v], 1.0 / double(nodes)));
    }
    const double rel = mass > 0 ? l1 / mass : 1.0;
    char detail[320];
    std::snprintf(detail, sizeof detail,
                  "vertices with an edge: |INC-FS| L1 %.4f of the FS rank "
                  "mass (< %g), worst vertex %.3f of its rank (< %g); %zu "
                  "of %zu vertices without an edge, %zu not at INC's "
                  "initial 1/n (FS: (1-d)/n)",
                  rel, kPrMaxL1, worst, kPrMaxVertex, untouched, nodes,
                  untouchedBad);
    report.check("oracle.pr",
                 rel < kPrMaxL1 && worst < kPrMaxVertex && untouchedBad == 0,
                 detail);
}

/** INC BFS vs a queue BFS over a ReferenceStore, exactly. */
void
checkBfs(const StreamPlan &plan, std::size_t n,
         const saga::StreamingRunner &runner, Report &report)
{
    saga::ReferenceStore ref;
    saga::ThreadPool pool(1);
    ref.updateBatch(plan.ingested(n), pool, /*reversed=*/false);
    report.check("oracle.edges", ref.numEdges() == runner.numEdges(),
                 std::to_string(runner.numEdges()) +
                     " edges, ReferenceStore " +
                     std::to_string(ref.numEdges()));

    const double inf = double(std::numeric_limits<std::uint32_t>::max());
    std::vector<double> want(runner.numNodes(), inf);
    const saga::NodeId src = plan.profile().source;
    std::deque<saga::NodeId> queue;
    if (src < ref.numNodes() && src < want.size()) {
        want[src] = 0;
        queue.push_back(src);
    }
    while (!queue.empty()) {
        const saga::NodeId v = queue.front();
        queue.pop_front();
        ref.forNeighbors(v, [&](const saga::Neighbor &nbr) {
            if (nbr.node < want.size() && want[nbr.node] == inf) {
                want[nbr.node] = want[v] + 1;
                queue.push_back(nbr.node);
            }
        });
    }
    const std::vector<double> got = runner.values();
    std::size_t mismatches = want.size() == got.size() ? 0 : want.size();
    for (std::size_t v = 0; v < std::min(want.size(), got.size()); ++v)
        mismatches += want[v] != got[v];
    report.check("oracle.bfs", mismatches == 0,
                 std::to_string(mismatches) + " of " +
                     std::to_string(want.size()) +
                     " depths differ from the reference BFS");
}

double
phaseMs(const saga::telemetry::MetricsSnapshot &snap,
        saga::telemetry::Phase p)
{
    return double(snap.phases[static_cast<std::size_t>(p)].totalNs) * 1e-6;
}

/** Per-layer figures of the traced half, plus the layer-sum check. */
void
addLayers(const std::vector<BatchRecord> &plainRecs,
          const std::vector<BatchRecord> &recs,
          const saga::telemetry::MetricsSnapshot &snap, Report &report)
{
    using saga::telemetry::Counter;
    using saga::telemetry::Phase;
    std::vector<double> update, compute;
    double updateSum = 0, computeSum = 0, batchSum = 0;
    Coverage cover; // the harness's own work between the calls is the rest
    for (const BatchRecord &r : recs) {
        const double batchMs = nsToMs(r.t2 - r.t0);
        update.push_back(r.updateS * 1e3);
        compute.push_back(r.computeS * 1e3);
        updateSum += r.updateS * 1e3;
        computeSum += r.computeS * 1e3;
        batchSum += batchMs;
        cover.add((r.updateS + r.computeS) * 1e3, batchMs);
    }
    const double batches = double(std::max<std::size_t>(1, recs.size()));
    report.add("ds.update_ms", summarize(update).p50, "ms",
               "p50 updatePhase, n=" + std::to_string(recs.size()));
    report.add("ds.scatter_ms", phaseMs(snap, Phase::UpdateScatter) / batches,
               "ms", "mean per batch (telemetry update/scatter)");
    report.add("ds.apply_ms", phaseMs(snap, Phase::UpdateApply) / batches,
               "ms", "mean per batch (telemetry update/apply)");
    const double seen = counterValue(snap, Counter::IngestEdgesSeen);
    report.add("ds.insert_ratio",
               seen > 0 ? counterValue(snap, Counter::IngestEdgesInserted) /
                              seen
                        : 0.0,
               "ratio", "ingest.edges_inserted / ingest.edges_seen");
    report.add("ds.update_share_pct", 100.0 * updateSum / batchSum, "%",
               "sum updatePhase / sum batch span");
    report.add("algo.compute_ms", summarize(compute).p50, "ms",
               "p50 computePhase, n=" + std::to_string(recs.size()));
    report.add("algo.affected_ms",
               phaseMs(snap, Phase::ComputeAffected) / batches, "ms",
               "mean per batch (telemetry compute/affected)");
    report.add("algo.rounds_per_batch",
               counterValue(snap, Counter::ComputeRounds) / batches,
               "count", "compute.rounds / batches");
    report.add("algo.affected_per_batch",
               counterValue(snap, Counter::ComputeAffectedVertices) /
                   batches,
               "count", "compute.affected_vertices / batches");
    report.add("algo.compute_share_pct", 100.0 * computeSum / batchSum, "%",
               "sum computePhase / sum batch span");
    const auto batchMs = [](const std::vector<BatchRecord> &rs) {
        std::vector<double> ms;
        for (const BatchRecord &r : rs)
            ms.push_back(nsToMs(r.t2 - r.t0));
        return ms;
    };
    report.add("trace.overhead_pct",
               overheadPct(batchMs(plainRecs), batchMs(recs)), "%",
               "batch p50, first traced vs last untraced tenth");
    report.add("trace.layer_cover_min_pct", cover.minPct, "%",
               "min over batches of (update + compute) / batch span");
    report.check("layer_sum", cover.ok(),
                 layerSumDetail("updatePhase + computePhase", "batch",
                                cover));
}

} // namespace

bool
isStreamWorkload(const std::string &name)
{
    for (const StreamSpec &s : kStreams) {
        if (name == s.name)
            return true;
    }
    return false;
}

void
runStream(const Options &opt, Report &report)
{
    const StreamSpec &spec = findSpec(opt.workload);
    const StreamPlan plan(spec, opt.seed);
    if (plan.batchCount() <= spec.warmupBatches)
        throw std::runtime_error("stream shorter than its warm-up");
    std::vector<saga::EdgeBatch> warmup;
    for (std::size_t b = 0; b < spec.warmupBatches; ++b)
        warmup.push_back(plan.batch(b));

    // Set-up is timed kSetupReps times: once for the runner that is
    // measured, and again after it is gone, so that no torn-down runner
    // precedes the measurement and peak_rss_mb holds one runner only.
    SetupLog setups;
    std::unique_ptr<saga::StreamingRunner> runner =
        setUp(spec, plan, warmup, setups);

    std::size_t next = spec.warmupBatches;
    SpanLog noSpans(false, 0);
    // Three spans per batch, for at most every batch left in the stream.
    SpanLog spans(opt.trace, 3 * (plan.batchCount() - next));
    // The traced run spends the first half untraced, so its per-layer
    // figures come with their own overhead measurement.
    const double plainSeconds = opt.trace ? opt.seconds / 2 : opt.seconds;
    const std::vector<BatchRecord> plainRecs =
        measure(*runner, plan, next, plainSeconds, noSpans, report);
    const StreamFigures plain = figures(plainRecs, plan.batchEdges());

    // A batch's results are visible when its compute phase returns
    // (lat_*), its edges to graph reads when its update phase returns
    // (fresh_*).
    report.addDist("lat", plain.batchMs, "ms");
    report.addDist("fresh", plain.updateMs, "ms");
    report.add("edges_per_s", plain.edgesPerS, "1/s",
               "streamed edges / streaming wall time, median over parts "
               "of 100 batches");
    if (opt.trace) {
        saga::telemetry::reset();
        saga::telemetry::setEnabled(true);
        const std::vector<BatchRecord> tracedRecs =
            measure(*runner, plan, next, opt.seconds - plainSeconds, spans,
                    report);
        saga::telemetry::setEnabled(false);
        addLayers(plainRecs, tracedRecs, saga::telemetry::snapshot(),
                  report);
        report.add("trace.spans", double(spans.size()), "count",
                   "harness spans kept in memory");
    }

    report.info("preload_edges", double(plan.preload().size()));
    report.info("batch_edges", double(plan.batchEdges()));
    report.info("batch_new_edges", double(spec.newPerBatch));
    report.info("batches_available", double(plan.batchCount()));
    report.info("batches_measured", double(next - spec.warmupBatches));
    report.info("graph_nodes", double(runner->numNodes()));
    report.info("graph_edges", double(runner->numEdges()));
    report.add("peak_rss_mb", peakRssMb(), "MB",
               "getrusage ru_maxrss, before the oracle runs");

    if (spec.alg == AlgKind::PR)
        checkPageRank(spec, plan, next, *runner, report);
    else
        checkBfs(plan, next, *runner, report);
    runner.reset();
    for (int rep = 1; rep < kSetupReps; ++rep)
        setUp(spec, plan, warmup, setups);
    setups.report(report, "median preload", "median first compute");

    if (spans.on() && !opt.traceOut.empty())
        report.check("trace.write", spans.write(opt.traceOut), opt.traceOut);
}

} // namespace perfbench
