/**
 * @file
 * Result report, span-log export and run provenance.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <thread>

#include "common.h"
#include "telemetry/telemetry.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.12g", v);
    return buf;
}

} // namespace

bool
SpanLog::write(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    const std::uint64_t base = spans_.empty() ? 0 : spans_.front().startNs;
    os << "{\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        const std::uint64_t start = s.startNs >= base ? s.startNs - base : 0;
        os << (i ? ",\n" : "") << "{\"name\":" << jsonString(s.name)
           << ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
           << jsonNumber(double(start) * 1e-3)
           << ",\"dur\":" << jsonNumber(double(s.endNs - s.startNs) * 1e-3)
           << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
           << "}}";
    }
    os << "\n]}\n";
    return bool(os);
}

void
Report::add(const std::string &name, double value, const std::string &unit,
            const std::string &note)
{
    if (!std::isfinite(value)) {
        check("finite:" + name, false, "value is not a finite number");
        value = 0;
    }
    metrics_.push_back({name, value, unit, note});
}

void
Report::addDist(const std::string &prefix, const Dist &d,
                const std::string &unit)
{
    char note[128];
    std::snprintf(note, sizeof note, "p50, n=%zu", d.n);
    add(prefix + "_p50_" + unit, d.p50, unit, note);
    if (d.tailP == 100.0)
        std::snprintf(note, sizeof note, "max (too few samples), n=%zu", d.n);
    else
        std::snprintf(note, sizeof note,
                      "p%g of each %zu-sample part, median over %zu parts, "
                      "n=%zu",
                      d.tailP, partSize(d.tailP), d.parts, d.n);
    add(prefix + "_tail_" + unit, d.tail, unit, note);
}

void
Report::info(const std::string &key, const std::string &value)
{
    info_.emplace_back(key, jsonString(value));
}

void
Report::info(const std::string &key, double value)
{
    info_.emplace_back(key, jsonNumber(value));
}

void
Report::check(const std::string &name, bool ok, const std::string &detail)
{
    checks_.push_back(std::string(ok ? "PASS " : "FAIL ") + name + ": " +
                      detail);
    if (!ok)
        correct_ = false;
}

void
Report::print(std::ostream &os) const
{
    std::string json = "{";
    for (const Metric &m : metrics_) {
        json += (json.size() > 1 ? ", " : "") + jsonString(m.name) +
                ": {\"value\": " + jsonNumber(m.value) +
                ", \"unit\": " + jsonString(m.unit) + "}";
    }
    json += "}";

    os << "provenance {";
    for (std::size_t i = 0; i < info_.size(); ++i)
        os << (i ? ", " : "") << jsonString(info_[i].first) << ": "
           << info_[i].second;
    os << "}\n";
    for (const std::string &c : checks_)
        os << "check " << c << "\n";
    for (const Metric &m : metrics_) {
        char line[256];
        std::snprintf(line, sizeof line, "metric %-34s %16.6f %-6s %s",
                      m.name.c_str(), m.value, m.unit.c_str(),
                      m.note.c_str());
        os << line << "\n";
    }
    const double errorPct =
        attempted_ ? 100.0 * double(failed_) / double(attempted_) : 0.0;
    os << "error_pct " << jsonNumber(errorPct) << " (" << failed_ << " of "
       << attempted_ << " operations failed)\n";
    os << "{\"correct\": " << (correct_ ? "true" : "false")
       << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
       << ", \"metrics\": " << json << "}" << std::endl;
}

void
SetupLog::report(Report &report, const std::string &loadNote,
                 const std::string &firstNote) const
{
    report.add("setup_s", median(total_), "s",
               "median of " + std::to_string(total_.size()) + " set-ups");
    report.add("setup.load_s", median(load_), "s", loadNote);
    report.add("setup.first_compute_s", median(first_), "s", firstNote);
}

std::string
layerSumDetail(const std::string &layers, const std::string &span,
               const Coverage &cover)
{
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  " cover %.2f%% of all %s time (tolerance: >= 98%%) and "
                  ">= %g%% of %zu of %zu %ss (tolerance: all but 1%%); "
                  "min %.1f%%",
                  cover.totalPct(), span.c_str(), cover.floorPct,
                  cover.spans - cover.below, cover.spans, span.c_str(),
                  cover.minPct);
    return layers + buf;
}

double
peakRssMb()
{
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return double(usage.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

void
addProvenance(Report &report, const Options &opt)
{
    report.info("workload", opt.workload);
    report.info("seed", double(opt.seed));
    report.info("seconds", opt.seconds);
    report.info("trace", opt.trace ? 1.0 : 0.0);
    report.info("nproc", double(std::thread::hardware_concurrency()));
    const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
    report.info("l3_bytes", double(l3 > 0 ? l3 : 0));
    report.info("pmu", saga::telemetry::perfAvailable()
                           ? "available"
                           : saga::telemetry::perfStatus());
    report.info("compiler", __VERSION__);
    report.info("build_type", PERFBENCH_BUILD_TYPE);
    report.info("commit", opt.commit.empty() ? "unknown" : opt.commit);
    report.info("source_digest",
                opt.sourceDigest.empty() ? "unknown" : opt.sourceDigest);
    report.info("threads", double(kThreads));
    report.info("setup_reps", double(kSetupReps));
}

} // namespace perfbench
