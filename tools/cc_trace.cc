/**
 * @file
 * cc_trace: sampled trace-driven simulation driver (DESIGN.md §16).
 *
 * Reads a sim/trace.hh text trace (a file, or stdin via `-`), slices
 * it into fixed-size intervals, clusters the intervals into phases
 * (seeded k-means over cache-system feature vectors), replays one
 * representative interval per phase with functional warm-up, and
 * reconstitutes whole-run statistics as the cluster-weight
 * combination. Optionally rewrites bulk memcpy/memcmp/memset loops
 * into CC instructions first (--convert), and checks the estimate
 * against a golden full replay (--golden).
 *
 * Usage:
 *
 *     cc_trace [options] <trace-file|->
 *       --interval N   records per interval          (default 1000)
 *       --clusters K   max phases                    (default 8)
 *       --warmup N     warm-up records per phase     (default: interval)
 *       --convert      run the CC-idiom converter pass
 *       --golden       full replay too; report per-metric error
 *       --json FILE    machine-readable summary (atomic write)
 *       --jobs N       replay workers                (default $CCACHE_JOBS)
 *       --seed S       clustering seed (decimal, or 0x-prefixed hex)
 *       --quiet        suppress the per-phase table
 *
 * Determinism: stdout and the JSON summary contain no timestamps and
 * no machine-local data; representative replays fan out across
 * --jobs workers into disjoint slots, so output is byte-identical at
 * any thread count (DESIGN.md §8; CI holds CCACHE_JOBS=1/2/8 to it).
 *
 * Exit status: 0 on success, 1 when the trace yields no records or
 * the output file cannot be written, 2 on usage errors. Parse errors
 * on individual lines are reported to stderr and skipped.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/json.hh"
#include "number_arg.hh"
#include "sample/idiom.hh"
#include "sample/sampled_runner.hh"
#include "sim/trace.hh"

// bench_util.hh is a bench-side header, but atomicWriteFile is exactly
// the crash-safe write the summary needs; include it rather than clone.
#include "bench/bench_util.hh"

using namespace ccache;

namespace {

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--interval N] [--clusters K] [--warmup N] "
        "[--convert]\n"
        "       [--golden] [--json FILE] [--jobs N] [--seed S] "
        "[--quiet] <trace|->\n",
        argv0);
}

ccache::Json
estimateJson(const sample::SampledEstimate &est)
{
    Json j = Json::object();
    j["reads"] = static_cast<double>(est.reads);
    j["writes"] = static_cast<double>(est.writes);
    j["cc_instructions"] = static_cast<double>(est.ccInstructions);
    j["l1_misses"] = est.l1Misses;
    j["mem_accesses"] = est.memAccesses;
    j["cc_block_ops"] = est.ccBlockOps;
    j["cycles"] = est.cycles;
    j["mem_miss_rate"] = est.memMissRate;
    j["l1_miss_rate"] = est.l1MissRate;
    j["cc_ops_per_kcycle"] = est.ccOpsPerKCycle;
    j["intervals_total"] = static_cast<double>(est.intervalsTotal);
    j["intervals_replayed"] = static_cast<double>(est.intervalsReplayed);
    j["replay_fraction"] = est.replayFraction();
    return j;
}

ccache::Json
goldenJson(const sim::TraceReplayResult &g)
{
    Json j = Json::object();
    j["reads"] = static_cast<double>(g.reads);
    j["writes"] = static_cast<double>(g.writes);
    j["cc_instructions"] = static_cast<double>(g.ccInstructions);
    j["l1_misses"] = static_cast<double>(g.l1Misses);
    j["mem_accesses"] = static_cast<double>(g.memAccesses);
    j["cc_block_ops"] = static_cast<double>(g.ccBlockOps);
    j["cycles"] = static_cast<double>(g.cycles);
    j["mem_miss_rate"] = g.memMissRate();
    j["cc_ops_per_kcycle"] = g.ccOpsPerKCycle();
    return j;
}

} // namespace

int
main(int argc, char **argv)
{
    sample::SampledRunParams params;
    params.warmupRecords = 0;
    bool warmupSet = false;
    sample::ConvertParams convertParams;
    bool convert = false;
    bool golden = false;
    bool quiet = false;
    std::string jsonPath;
    std::string tracePath;

    for (int i = 1; i < argc; ++i) {
        auto needArg = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "cc_trace: %s needs an argument\n",
                             flag);
                usage(argv[0]);
                std::exit(2);
            }
            return argv[++i];
        };
        if (!std::strcmp(argv[i], "--interval")) {
            params.intervalRecords = cctools::positiveArg<std::size_t>(
                "cc_trace", "--interval", needArg("--interval"));
        } else if (!std::strcmp(argv[i], "--clusters")) {
            params.clusters = cctools::positiveArg<std::size_t>(
                "cc_trace", "--clusters", needArg("--clusters"));
        } else if (!std::strcmp(argv[i], "--warmup")) {
            params.warmupRecords = cctools::numberArg<std::size_t>(
                "cc_trace", "--warmup", needArg("--warmup"));
            warmupSet = true;
        } else if (!std::strcmp(argv[i], "--seed")) {
            params.seed = cctools::numberArg<std::uint64_t>(
                "cc_trace", "--seed", needArg("--seed"), 0);
        } else if (!std::strcmp(argv[i], "--jobs")) {
            params.jobs = cctools::positiveArg<unsigned>(
                "cc_trace", "--jobs", needArg("--jobs"));
        } else if (!std::strcmp(argv[i], "--convert")) {
            convert = true;
        } else if (!std::strcmp(argv[i], "--golden")) {
            golden = true;
        } else if (!std::strcmp(argv[i], "--json")) {
            jsonPath = needArg("--json");
        } else if (!std::strcmp(argv[i], "--quiet")) {
            quiet = true;
        } else if (!std::strcmp(argv[i], "--help") ||
                   !std::strcmp(argv[i], "-h")) {
            usage(argv[0]);
            return 0;
        } else if (argv[i][0] == '-' && argv[i][1] != '\0') {
            std::fprintf(stderr, "cc_trace: unknown option %s\n",
                         argv[i]);
            usage(argv[0]);
            return 2;
        } else if (tracePath.empty()) {
            tracePath = argv[i];
        } else {
            usage(argv[0]);
            return 2;
        }
    }
    if (tracePath.empty()) {
        usage(argv[0]);
        return 2;
    }
    if (!warmupSet)
        params.warmupRecords = params.intervalRecords;

    sim::ParsedTrace parsed = sim::parseTraceFile(tracePath);
    for (const auto &err : parsed.errors)
        std::fprintf(stderr, "cc_trace: line %zu: %s\n", err.lineNumber,
                     err.message.c_str());
    if (parsed.records.empty()) {
        std::fprintf(stderr, "cc_trace: no records in %s\n",
                     tracePath.c_str());
        return 1;
    }

    std::vector<sim::TraceRecord> records = std::move(parsed.records);
    sample::ConvertStats convStats;
    if (convert) {
        sample::ConvertResult conv =
            sample::convertIdioms(records, convertParams);
        convStats = conv.stats;
        records = std::move(conv.records);
        std::printf("convert: %llu -> %llu records (copy %llu blocks in "
                    "%llu runs, cmp %llu pairs in %llu runs, zero %llu "
                    "blocks in %llu runs)\n",
                    static_cast<unsigned long long>(convStats.recordsIn),
                    static_cast<unsigned long long>(convStats.recordsOut),
                    static_cast<unsigned long long>(convStats.copyBlocks),
                    static_cast<unsigned long long>(convStats.copyRuns),
                    static_cast<unsigned long long>(convStats.cmpBlocks),
                    static_cast<unsigned long long>(convStats.cmpRuns),
                    static_cast<unsigned long long>(convStats.zeroBlocks),
                    static_cast<unsigned long long>(convStats.zeroRuns));
    }

    sample::SampledRun run = sample::runSampled(records, params);
    const sample::SampledEstimate &est = run.estimate;

    std::printf("cc_trace: %llu records, %zu intervals of %zu, %zu "
                "phases (replayed %zu/%zu, %.1f%%)\n",
                static_cast<unsigned long long>(est.recordsTotal),
                est.intervalsTotal, params.intervalRecords,
                run.clustering.phases.size(), est.intervalsReplayed,
                est.intervalsTotal, 100.0 * est.replayFraction());

    if (!quiet) {
        std::printf("\n%-6s %9s %7s %6s %9s %9s %7s %7s %10s\n", "phase",
                    "intervals", "weight", "rep", "reads", "writes",
                    "ccops", "miss%", "ccops/kcyc");
        for (std::size_t p = 0; p < run.representatives.size(); ++p) {
            const sample::RepresentativeRun &rep = run.representatives[p];
            std::printf("%-6zu %9llu %7.4f %6zu %9llu %9llu %7llu "
                        "%6.2f%% %10.3f\n",
                        p,
                        static_cast<unsigned long long>(rep.intervalCount),
                        rep.weight, rep.interval,
                        static_cast<unsigned long long>(rep.metrics.reads),
                        static_cast<unsigned long long>(
                            rep.metrics.writes),
                        static_cast<unsigned long long>(
                            rep.metrics.ccInstructions),
                        100.0 * rep.metrics.memMissRate(),
                        rep.metrics.ccOpsPerKCycle());
        }
    }

    std::printf("\nestimate: reads %llu writes %llu ccops %llu "
                "mem-miss %.4f l1-miss %.4f ccops/kcyc %.3f cycles "
                "%.0f\n",
                static_cast<unsigned long long>(est.reads),
                static_cast<unsigned long long>(est.writes),
                static_cast<unsigned long long>(est.ccInstructions),
                est.memMissRate, est.l1MissRate, est.ccOpsPerKCycle,
                est.cycles);

    Json doc = Json::object();
    doc["schema"] = "ccache-trace-summary";
    doc["version"] = 1;
    doc["trace"] = tracePath == "-" ? "stdin" : tracePath;
    doc["interval_records"] = static_cast<double>(params.intervalRecords);
    doc["clusters"] = static_cast<double>(params.clusters);
    doc["warmup_records"] = static_cast<double>(params.warmupRecords);
    doc["parse_errors"] = static_cast<double>(parsed.errors.size());
    doc["estimate"] = estimateJson(est);
    if (convert) {
        Json c = Json::object();
        c["records_in"] = static_cast<double>(convStats.recordsIn);
        c["records_out"] = static_cast<double>(convStats.recordsOut);
        c["copy_runs"] = static_cast<double>(convStats.copyRuns);
        c["copy_blocks"] = static_cast<double>(convStats.copyBlocks);
        c["cmp_runs"] = static_cast<double>(convStats.cmpRuns);
        c["cmp_blocks"] = static_cast<double>(convStats.cmpBlocks);
        c["zero_runs"] = static_cast<double>(convStats.zeroRuns);
        c["zero_blocks"] = static_cast<double>(convStats.zeroBlocks);
        doc["convert"] = std::move(c);
    }

    if (golden) {
        sim::TraceReplayResult full = sample::runFull(records);
        sample::SampleError err = sample::compareWithGolden(est, full);
        std::printf("golden:   reads %llu writes %llu ccops %llu "
                    "mem-miss %.4f ccops/kcyc %.3f cycles %llu\n",
                    static_cast<unsigned long long>(full.reads),
                    static_cast<unsigned long long>(full.writes),
                    static_cast<unsigned long long>(full.ccInstructions),
                    full.memMissRate(), full.ccOpsPerKCycle(),
                    static_cast<unsigned long long>(full.cycles));
        std::printf("error:    mem-miss %.2f%% l1-miss %.2f%% "
                    "ccops/kcyc %.2f%% cycles %.2f%%\n",
                    100.0 * err.memMissRate, 100.0 * err.l1MissRate,
                    100.0 * err.ccOpsPerKCycle, 100.0 * err.cycles);
        doc["golden"] = goldenJson(full);
        Json e = Json::object();
        e["mem_miss_rate"] = err.memMissRate;
        e["l1_miss_rate"] = err.l1MissRate;
        e["cc_ops_per_kcycle"] = err.ccOpsPerKCycle;
        e["cycles"] = err.cycles;
        doc["errors"] = std::move(e);
    }

    if (!jsonPath.empty()) {
        if (!bench::atomicWriteFile(jsonPath, doc.dump(2) + "\n")) {
            std::fprintf(stderr, "cc_trace: cannot write %s\n",
                         jsonPath.c_str());
            return 1;
        }
        std::printf("summary: %s\n", jsonPath.c_str());
    }
    return 0;
}
