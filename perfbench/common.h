/**
 * @file
 * Shared pieces of the benchmark harness: the clock, the span log of the
 * traced run, run options, and the result report.
 */

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "bench_stats.h"
#include "telemetry/telemetry.h"

namespace perfbench {

/**
 * Worker threads of every workload. The measurement host has 4 vCPUs;
 * three busy threads leave one for the OS and for other tenants, which
 * is what keeps run-to-run spread low.
 */
inline constexpr std::size_t kThreads = 3;

/** Set-ups per run; setup_s is their median. */
inline constexpr int kSetupReps = 5;

/** Nanoseconds on the steady clock (arbitrary epoch). */
inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

inline double
nsToMs(std::uint64_t ns)
{
    return double(ns) * 1e-6;
}

/** Command-line options the harness binary accepts. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string traceOut;     ///< span file of the traced run
    std::string sourceDigest; ///< content hash of the sources built
    std::string commit;       ///< git commit when known
};

/** One span: a public call the harness made, with its cause. */
struct Span
{
    const char *name = "";
    std::uint64_t id = 0;     ///< batch or request id
    std::uint64_t parent = 0; ///< id of the causing batch/request (0: none)
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
};

/**
 * In-memory span log, written once when the run ends. It reserves room
 * for the @p expected spans of the run up front, so that recording never
 * reallocates (and stalls) inside a timed loop.
 */
class SpanLog
{
  public:
    SpanLog(bool on, std::size_t expected) : on_(on)
    {
        if (on_)
            spans_.reserve(expected);
    }

    bool on() const { return on_; }

    void
    add(const char *name, std::uint64_t id, std::uint64_t parent,
        std::uint64_t startNs, std::uint64_t endNs)
    {
        if (on_)
            spans_.push_back({name, id, parent, startNs, endNs});
    }

    std::size_t size() const { return spans_.size(); }

    /** Write Chrome trace_event JSON; @return false on I/O failure. */
    bool write(const std::string &path) const;

  private:
    bool on_;
    std::vector<Span> spans_;
};

/** Metrics, checks and provenance of one run, printed at the end. */
class Report
{
  public:
    /** Record metric @p name; @p note says how it was sampled. */
    void add(const std::string &name, double value, const std::string &unit,
             const std::string &note = "");

    /** Record p50 and tail of @p d as <prefix>_{p50,tail}_<unit>. */
    void addDist(const std::string &prefix, const Dist &d,
                 const std::string &unit);

    /** Record a provenance field (printed as a JSON string or number). */
    void info(const std::string &key, const std::string &value);
    void info(const std::string &key, double value);

    /** Record a correctness check; any failed check clears `correct`. */
    void check(const std::string &name, bool ok, const std::string &detail);

    void attempt(std::uint64_t n) { attempted_ += n; }
    void fail(std::uint64_t n) { failed_ += n; }

    bool correct() const { return correct_; }

    /**
     * Print the human-readable report (every metric, check and
     * provenance field), then, as the last line, the result JSON
     * {"correct", "attempted", "failed", "metrics"} with every metric.
     * run.py narrows the metrics to the ones BENCHMARK.json names.
     */
    void print(std::ostream &os) const;

  private:
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
        std::string note;
    };

    std::vector<Metric> metrics_;
    std::vector<std::pair<std::string, std::string>> info_; // key, JSON
    std::vector<std::string> checks_;
    bool correct_ = true;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/** Times of one set-up: all of it, its load and its first compute. */
struct SetupTimes
{
    double total = 0;
    double load = 0;
    double firstCompute = 0;
};

/**
 * The kSetupReps set-ups of a run: the one whose runner or service is
 * measured, and the rest after it is gone. setup_s and its parts are
 * medians over them.
 */
class SetupLog
{
  public:
    void
    add(const SetupTimes &t)
    {
        total_.push_back(t.total);
        load_.push_back(t.load);
        first_.push_back(t.firstCompute);
    }

    /** Report setup_s, setup.load_s and setup.first_compute_s. */
    void report(Report &report, const std::string &loadNote,
                const std::string &firstNote) const;

  private:
    std::vector<double> total_, load_, first_;
};

/** Telemetry counter @p c of @p snap. */
inline double
counterValue(const saga::telemetry::MetricsSnapshot &snap,
             saga::telemetry::Counter c)
{
    return double(snap.counters[static_cast<std::size_t>(c)]);
}

/** The layer-sum check's verdict in words, with its tolerance. */
std::string layerSumDetail(const std::string &layers, const std::string &span,
                           const Coverage &cover);

/** Peak resident set size of this process, in MiB. */
double peakRssMb();

/** Fill the host/build provenance every result carries. */
void addProvenance(Report &report, const Options &opt);

/** Workload entry points. */
void runStream(const Options &opt, Report &report);
void runServe(const Options &opt, Report &report);

/** Names of the stream workloads (the rest is serve-mixed). */
bool isStreamWorkload(const std::string &name);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H_
