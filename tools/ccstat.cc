/**
 * @file
 * ccstat: compare two bench-result JSON files and flag regressions.
 *
 * Usage:
 *
 *     ccstat BASELINE.json CURRENT.json [--threshold FRAC] [--stats]
 *            [--perf] [--perf-threshold FRAC] [--identical]
 *
 * Both inputs are `ccache-bench-results` files written by
 * bench::ResultsWriter (see bench/bench_util.hh and DESIGN.md §7). The
 * tool compares the "metrics" maps — with `--stats` also every embedded
 * stats dump — and prints one line per metric whose relative drift
 * exceeds the threshold (default 5%). Drift is flagged in BOTH
 * directions: the simulator is deterministic, so an unexpected
 * improvement is as suspicious as a regression.
 *
 * Two perf-aware modes (DESIGN.md §13, README "Profiling & perf CI"):
 *
 *  - `--perf` additionally compares the run-local "perf" sections. This
 *    check is one-sided — only a slowdown beyond `--perf-threshold`
 *    (default 50%, generous because wall clock is noisy) fails.
 *  - `--identical` replaces the semantic comparison with a byte-level
 *    one that ignores the "perf" section: the documents must serialize
 *    identically after stripping it. This is what CI's thread-count and
 *    filtered-run identity checks use instead of raw `cmp`.
 *
 * Exit status: 0 when everything is within the threshold, 1 when at
 * least one metric drifted, 2 on I/O, parse or schema errors or a
 * malformed argument (a threshold must be a finite number >= 0) — so
 * CI can gate merges on it directly. The comparison itself lives in
 * result_compare.hh, shared with the `ccbench` catalog driver.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/json.hh"
#include "number_arg.hh"
#include "result_compare.hh"

namespace {

using ccache::Json;

struct Options
{
    std::string baselinePath;
    std::string currentPath;
    double threshold = cctools::kDriftThreshold;
    double perfThreshold = 0.5;
    bool compareStats = false;
    bool comparePerf = false;
    bool identical = false;
};

void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s BASELINE.json CURRENT.json "
                 "[--threshold FRAC] [--stats]\n"
                 "       [--perf] [--perf-threshold FRAC] "
                 "[--identical]\n",
                 argv0);
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    int positional = 0;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--threshold")) {
            if (i + 1 >= argc) {
                usage(argv[0]);
                return 2;
            }
            opt.threshold = cctools::thresholdArg("ccstat", "--threshold",
                                                  argv[++i]);
        } else if (!std::strcmp(argv[i], "--stats")) {
            opt.compareStats = true;
        } else if (!std::strcmp(argv[i], "--perf")) {
            opt.comparePerf = true;
        } else if (!std::strcmp(argv[i], "--perf-threshold")) {
            if (i + 1 >= argc) {
                usage(argv[0]);
                return 2;
            }
            opt.perfThreshold = cctools::thresholdArg(
                "ccstat", "--perf-threshold", argv[++i]);
        } else if (!std::strcmp(argv[i], "--identical")) {
            opt.identical = true;
        } else if (!std::strcmp(argv[i], "--help") ||
                   !std::strcmp(argv[i], "-h")) {
            usage(argv[0]);
            return 0;
        } else if (positional == 0) {
            opt.baselinePath = argv[i];
            ++positional;
        } else if (positional == 1) {
            opt.currentPath = argv[i];
            ++positional;
        } else {
            usage(argv[0]);
            return 2;
        }
    }
    if (positional != 2) {
        usage(argv[0]);
        return 2;
    }

    Json base, cur;
    if (!cctools::loadResults(opt.baselinePath, base) ||
        !cctools::loadResults(opt.currentPath, cur))
        return 2;

    const Json *bb = base.find("bench");
    const char *bench = bb ? bb->asString().c_str() : "ccstat";

    if (opt.identical) {
        // Byte-level identity modulo the run-local perf section.
        std::string a = cctools::stripPerf(base).dump(2);
        std::string b = cctools::stripPerf(cur).dump(2);
        if (a != b) {
            std::printf("%s: documents DIFFER (ignoring perf)\n", bench);
            return 1;
        }
        std::printf("%s: identical (ignoring perf)\n", bench);
        return 0;
    }

    int flagged = cctools::compareResults(base, cur, opt.threshold,
                                          opt.compareStats);
    std::printf("%s: %d metric(s) beyond %.1f%% threshold\n", bench,
                flagged, 100.0 * opt.threshold);

    if (opt.comparePerf) {
        int perf_flagged =
            cctools::comparePerf(base, cur, opt.perfThreshold);
        std::printf("%s: %d perf regression(s) beyond %.0f%% "
                    "tolerance\n",
                    bench, perf_flagged, 100.0 * opt.perfThreshold);
        flagged += perf_flagged;
    }
    return flagged ? 1 : 0;
}
