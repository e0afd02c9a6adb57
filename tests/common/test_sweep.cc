/**
 * @file
 * Determinism tests for the parallel sweep engine (DESIGN.md §8): the
 * same sweep run at 1, 2 and 8 threads must produce a byte-identical
 * ResultsWriter document (metrics, config entries and embedded stats
 * dumps, applied in point order) and byte-identical
 * `results/<bench>.json` files on disk — plus unit coverage of the
 * seed-derivation scheme.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.hh"
#include "common/rng.hh"
#include "common/stats.hh"

namespace {

using ccache::deriveSeed;

TEST(DeriveSeed, PureFunctionOfBaseAndKey)
{
    EXPECT_EQ(deriveSeed(1, "alpha"), deriveSeed(1, "alpha"));
    EXPECT_NE(deriveSeed(1, "alpha"), deriveSeed(2, "alpha"));
    EXPECT_NE(deriveSeed(1, "alpha"), deriveSeed(1, "beta"));
    // Single-character differences must decorrelate.
    EXPECT_NE(deriveSeed(1, "rows_1"), deriveSeed(1, "rows_2"));
}

TEST(DeriveSeed, DistinctAcrossRealisticKeyGrid)
{
    std::set<std::uint64_t> seeds;
    for (int cap : {1, 2, 4, 8, 16, 32, 64, 128})
        for (const char *prefix : {"cap_", "rows_", "hit_"})
            seeds.insert(deriveSeed(bench::kSweepBaseSeed,
                                    prefix + std::to_string(cap)));
    EXPECT_EQ(seeds.size(), 24u);
}

TEST(SweepContext, RngStreamsAreIndependentPerLabel)
{
    bench::SweepContext ctx("point");
    ccache::Rng a1 = ctx.rngFor("stream_a");
    ccache::Rng b = ctx.rngFor("stream_b");
    // Drawing from b must not shift a second instance of a.
    std::vector<std::uint64_t> first;
    for (int i = 0; i < 8; ++i)
        first.push_back(a1.next());
    for (int i = 0; i < 100; ++i)
        b.next();
    ccache::Rng a2 = ctx.rngFor("stream_a");
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(a2.next(), first[i]);
}

/**
 * A synthetic sweep exercising every output a point records: per-point
 * RNG draws, metrics, config entries and embedded stats dumps of a
 * point-owned registry (counters, accumulators, histograms).
 */
std::string
runSweepAt(unsigned jobs)
{
    bench::ResultsWriter results("determinism_probe");
    bench::SweepRunner sweep(&results);
    for (int p = 0; p < 12; ++p) {
        std::string key = "point_" + std::to_string(p);
        sweep.add(key, [key, p](bench::SweepContext &ctx) {
            double acc = 0.0;
            for (int i = 0; i < 100 + 13 * p; ++i)
                acc += static_cast<double>(ctx.rng().below(1000));
            ctx.metric(key + ".rng_sum", acc);
            ctx.config(key + ".iters", 100 + 13 * p);

            ccache::StatRegistry stats;
            auto &c = stats.counter("probe.events", "synthetic event count");
            c.inc(static_cast<std::uint64_t>(p) + 1);
            auto &a = stats.accum("probe.weight", "synthetic fp accumulator");
            a.add(0.1 * p);
            auto &h = stats.histogram("probe.dist", 10.0, 8,
                                      "synthetic histogram");
            for (int i = 0; i < 20; ++i)
                h.sample(static_cast<double>(ctx.rng().below(80)));

            ctx.statsJson(key, stats.dumpJson());
        });
    }
    sweep.run(jobs);
    return results.document().dump(2);
}

TEST(SweepDeterminism, MergedOutputsByteIdenticalAcrossThreadCounts)
{
    std::string serial = runSweepAt(1);
    for (unsigned jobs : {2u, 8u})
        EXPECT_EQ(serial, runSweepAt(jobs))
            << "ResultsWriter document differs at " << jobs << " threads";
}

TEST(SweepDeterminism, RepeatedParallelRunsIdentical)
{
    EXPECT_EQ(runSweepAt(8), runSweepAt(8));
}

/** Read one file fully (binary). */
std::string
slurp(const std::filesystem::path &p)
{
    std::ifstream in(p, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

TEST(SweepDeterminism, ResultFilesOnDiskByteIdentical)
{
    namespace fs = std::filesystem;
    fs::path dir1 = fs::temp_directory_path() / "ccache_det_j1";
    fs::path dir8 = fs::temp_directory_path() / "ccache_det_j8";
    fs::remove_all(dir1);
    fs::remove_all(dir8);

    auto write_at = [](const fs::path &dir, unsigned jobs) {
        ::setenv("CCACHE_RESULTS_DIR", dir.string().c_str(), 1);
        bench::ResultsWriter results("determinism_file_probe");
        bench::SweepRunner sweep(&results);
        for (int p = 0; p < 6; ++p) {
            std::string key = "pt_" + std::to_string(p);
            sweep.add(key, [key](bench::SweepContext &ctx) {
                ctx.metric(key + ".draw",
                           static_cast<double>(ctx.rng().below(1 << 20)));
            });
        }
        sweep.run(jobs);
        return results.write();
    };

    std::string path1 = write_at(dir1, 1);
    std::string path8 = write_at(dir8, 8);
    ::unsetenv("CCACHE_RESULTS_DIR");
    ASSERT_FALSE(path1.empty());
    ASSERT_FALSE(path8.empty());

    // The run-local "perf" section is nondeterministic by design — it
    // measures this run's wall clock (DESIGN.md §13). It must be
    // present in every written file, holding only `wall_clock_s`, and
    // everything outside it must be byte-identical across thread counts.
    auto strip_perf = [](const std::string &text) {
        std::string err;
        ccache::Json doc = ccache::Json::parse(text, &err);
        EXPECT_TRUE(err.empty()) << err;
        const ccache::Json *perf = doc.find("perf");
        EXPECT_TRUE(perf && perf->isObject());
        if (perf && perf->isObject()) {
            EXPECT_EQ(perf->asObject().size(), 1u);
            EXPECT_TRUE(perf->find("wall_clock_s"));
        }
        ccache::Json::Object out;
        for (const auto &[key, value] : doc.asObject()) {
            if (key != "perf")
                out.emplace(key, value);
        }
        return ccache::Json(std::move(out)).dump(2);
    };
    EXPECT_EQ(strip_perf(slurp(path1)), strip_perf(slurp(path8)));

    fs::remove_all(dir1);
    fs::remove_all(dir8);
}

TEST(SweepRunner, AppliesPointOutputsInDefinitionOrder)
{
    // Outputs are applied at the barrier in the order the points were
    // added, not the order they finished: when every point records the
    // same metric, the last-defined point's value stands at any thread
    // count, even though it finishes first.
    for (unsigned jobs : {1u, 8u}) {
        bench::ResultsWriter results("order_probe");
        bench::SweepRunner sweep(&results);
        for (int p = 0; p < 8; ++p) {
            sweep.add("p" + std::to_string(p),
                      [p](bench::SweepContext &ctx) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(7 - p));
                ctx.metric("order.last", p);
            });
        }
        sweep.run(jobs);
        EXPECT_EQ(results.document().find("metrics")
                      ->find("order.last")->asNumber(), 7.0)
            << jobs << " threads";
    }
}

TEST(SweepRunner, SeedsIndependentOfThreadCount)
{
    auto seeds_at = [](unsigned jobs) {
        std::vector<std::uint64_t> seeds(8);
        bench::SweepRunner sweep(nullptr);
        for (int p = 0; p < 8; ++p) {
            sweep.add("seed_pt_" + std::to_string(p),
                      [&seeds, p](bench::SweepContext &ctx) {
                seeds[p] = ctx.seed();
            });
        }
        sweep.run(jobs);
        return seeds;
    };
    EXPECT_EQ(seeds_at(1), seeds_at(8));
}

} // namespace
