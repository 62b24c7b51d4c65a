/**
 * @file
 * perfbench — the repository benchmark's harness binary.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--trace-out <file>] [--source-digest <hex>] [--commit <id>]
 *
 * Runs one workload, checks its outputs against an oracle, and prints a
 * human-readable report followed by one result-JSON line (the last line
 * of stdout). perfbench/run.py builds this binary and is the command to
 * use; NOTES.md describes the workloads and metrics.
 */

#include <exception>
#include <iostream>
#include <stdexcept>
#include <string>

#include "common.h"
#include "telemetry/telemetry.h"

namespace {

int
usage(const char *msg)
{
    std::cerr << "perfbench: " << msg
              << "\nusage: perfbench --workload <inc-pr-rmat|ingest-talk|"
                 "serve-mixed> --seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-out <file>] [--source-digest <hex>] "
                 "[--commit <id>]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::Options opt;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string flag = argv[i];
            if (i + 1 >= argc)
                return usage(("missing value for " + flag).c_str());
            const std::string value = argv[++i];
            std::size_t used = 0;
            if (flag == "--workload") {
                opt.workload = value;
            } else if (flag == "--seed") {
                opt.seed = std::stoull(value, &used);
            } else if (flag == "--seconds") {
                opt.seconds = std::stod(value, &used);
            } else if (flag == "--trace") {
                if (value != "0" && value != "1")
                    return usage("--trace takes 0 or 1");
                opt.trace = value == "1";
            } else if (flag == "--trace-out") {
                opt.traceOut = value;
            } else if (flag == "--source-digest") {
                opt.sourceDigest = value;
            } else if (flag == "--commit") {
                opt.commit = value;
            } else {
                return usage(("unknown flag " + flag).c_str());
            }
            if (used != 0 && used != value.size())
                return usage(("bad number for " + flag).c_str());
        }
    } catch (const std::exception &) {
        return usage("bad number");
    }
    if (opt.workload.empty())
        return usage("--workload is required");
    if (!(opt.seconds > 0 && opt.seconds <= 600))
        return usage("--seconds must be in (0, 600]");
    const bool stream = perfbench::isStreamWorkload(opt.workload);
    if (!stream && opt.workload != "serve-mixed")
        return usage(("unknown workload " + opt.workload).c_str());

    // Opened before any worker pool exists (inherit semantics); on a host
    // without a PMU this only records why.
    saga::telemetry::enablePerf();

    perfbench::Report report;
    perfbench::addProvenance(report, opt);
    try {
        if (stream)
            perfbench::runStream(opt, report);
        else
            perfbench::runServe(opt, report);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
    report.print(std::cout);
    return report.correct() ? 0 : 3;
}
