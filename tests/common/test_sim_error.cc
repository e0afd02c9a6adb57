/**
 * @file
 * Error-containment tests: panic/CC_ASSERT throw catchable SimError
 * (logging.hh taxonomy), CC_FATAL throws FatalError, the bench_util
 * hardening holds (plausible-or-"unknown" gitSha, atomic result
 * writes), and the sweep engine contains per-point failures as
 * structured "errors" entries without perturbing the surviving points'
 * bytes at any thread count.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench/bench_util.hh"
#include "common/logging.hh"

namespace {

namespace fs = std::filesystem;

using ccache::FatalError;
using ccache::SimError;

TEST(SimErrorTest, PanicThrowsCatchableSimError)
{
    try {
        CC_PANIC("seeded panic ", 42);
        FAIL() << "expected SimError";
    } catch (const SimError &e) {
        std::string what = e.what();
        EXPECT_NE(what.find("panic: seeded panic 42"), std::string::npos);
        EXPECT_NE(what.find("test_sim_error.cc"), std::string::npos);
    }
}

TEST(SimErrorTest, AssertThrowsOnlyWhenFalse)
{
    EXPECT_NO_THROW(CC_ASSERT(1 + 1 == 2, "arithmetic works"));
    EXPECT_THROW(CC_ASSERT(false, "seeded assert"), SimError);
}

TEST(SimErrorTest, FatalThrowsFatalError)
{
    EXPECT_THROW(CC_FATAL("unusable config"), FatalError);
    // The taxonomy matters: config errors must NOT be catchable as the
    // simulator-bug type.
    try {
        CC_FATAL("unusable config");
    } catch (const SimError &) {
        FAIL() << "FatalError must not derive from SimError";
    } catch (const FatalError &) {
    }
}

TEST(SimErrorTest, CarriesOptionalDiagnostic)
{
    SimError plain("boom");
    EXPECT_TRUE(plain.diagnostic().empty());
    SimError rich("boom", "{\"k\": 1}");
    EXPECT_EQ(rich.diagnostic(), "{\"k\": 1}");
}

TEST(GitShaTest, PlausibilityFilter)
{
    EXPECT_TRUE(bench::plausibleGitSha("deadbeef"));
    EXPECT_TRUE(bench::plausibleGitSha("0123456789abcdef0123456789abcdef"
                                       "01234567"));
    EXPECT_FALSE(bench::plausibleGitSha(""));
    EXPECT_FALSE(bench::plausibleGitSha("abc"));            // too short
    EXPECT_FALSE(bench::plausibleGitSha("DEADBEEF"));       // uppercase
    EXPECT_FALSE(bench::plausibleGitSha("fatal: not a git repo"));
    EXPECT_FALSE(bench::plausibleGitSha("deadbeef\n"));
}

TEST(GitShaTest, NeverReturnsGarbage)
{
    std::string sha = bench::gitSha();
    EXPECT_TRUE(sha == "unknown" || bench::plausibleGitSha(sha)) << sha;
}

TEST(AtomicWriteFileTest, WritesAndLeavesNoTempResidue)
{
    fs::path dir = fs::temp_directory_path() / "ccache_atomic_write";
    fs::remove_all(dir);
    fs::create_directories(dir);
    fs::path target = dir / "out.json";

    ASSERT_TRUE(bench::atomicWriteFile(target.string(), "first\n"));
    ASSERT_TRUE(bench::atomicWriteFile(target.string(), "second\n"));

    std::ifstream in(target);
    std::stringstream buf;
    buf << in.rdbuf();
    EXPECT_EQ(buf.str(), "second\n");

    std::size_t entries = 0;
    for (const auto &e : fs::directory_iterator(dir)) {
        (void)e;
        ++entries;
    }
    EXPECT_EQ(entries, 1u) << "temp files must not survive";
    fs::remove_all(dir);
}

TEST(AtomicWriteFileTest, FailsCleanlyIntoMissingDirectory)
{
    fs::path missing =
        fs::temp_directory_path() / "ccache_no_such_dir" / "out.json";
    fs::remove_all(missing.parent_path());
    EXPECT_FALSE(bench::atomicWriteFile(missing.string(), "data"));
    EXPECT_FALSE(fs::exists(missing));
}

/** Sweep with one seeded failure among healthy points. */
void
buildSweep(bench::SweepRunner &sweep, const std::string &fail_kind)
{
    for (int p = 0; p < 4; ++p) {
        std::string key = "pt_" + std::to_string(p);
        sweep.add(key, [key, p, fail_kind](bench::SweepContext &ctx) {
            if (p == 2) {
                if (fail_kind == "sim_error")
                    throw SimError("seeded point failure",
                                   "{\"cause\": \"test\"}");
                if (fail_kind == "fatal_error")
                    throw FatalError("seeded fatal");
                if (fail_kind == "exception")
                    throw std::runtime_error("seeded exception");
            }
            ctx.metric(key + ".draw",
                       static_cast<double>(ctx.rng().below(1000)));
        });
    }
}

TEST(SweepContainment, FailedPointRecordsErrorOthersComplete)
{
    bench::ResultsWriter results("containment_probe");
    bench::SweepRunner sweep(&results);
    buildSweep(sweep, "sim_error");
    sweep.run(4);

    EXPECT_EQ(sweep.errorCount(), 1u);
    EXPECT_EQ(results.errorCount(), 1u);

    const ccache::Json &doc = results.document();
    const ccache::Json *errors = doc.find("errors");
    ASSERT_NE(errors, nullptr);
    ASSERT_EQ(errors->size(), 1u);
    const ccache::Json &e = errors->asArray().front();
    EXPECT_EQ(e.find("point")->asString(), "pt_2");
    EXPECT_EQ(e.find("kind")->asString(), "sim_error");
    EXPECT_EQ(e.find("message")->asString(), "seeded point failure");
    ASSERT_NE(e.find("diagnostic"), nullptr);
    EXPECT_EQ(e.find("diagnostic")->find("cause")->asString(), "test");

    // The three healthy points all contributed their metrics; the
    // failed one contributed nothing but the error record.
    const ccache::Json *metrics = doc.find("metrics");
    ASSERT_NE(metrics, nullptr);
    EXPECT_EQ(metrics->size(), 3u);
    EXPECT_EQ(metrics->find("pt_2.draw"), nullptr);
}

TEST(SweepContainment, KindsMapToExceptionTypes)
{
    for (const char *kind : {"fatal_error", "exception"}) {
        bench::ResultsWriter results("containment_kind_probe");
        bench::SweepRunner sweep(&results);
        buildSweep(sweep, kind);
        sweep.run(2);
        const ccache::Json *errors = results.document().find("errors");
        ASSERT_NE(errors, nullptr) << kind;
        EXPECT_EQ(errors->asArray().front().find("kind")->asString(),
                  kind);
    }
}

TEST(SweepContainment, ErrorFreeDocumentHasNoErrorsSection)
{
    // Baseline byte-compatibility: the "errors" key must not exist on
    // healthy runs.
    bench::ResultsWriter results("clean_probe");
    bench::SweepRunner sweep(&results);
    for (int p = 0; p < 3; ++p)
        sweep.add("pt_" + std::to_string(p),
                  [](bench::SweepContext &ctx) {
                      ctx.metric("x", 1.0);
                  });
    sweep.run(2);
    EXPECT_EQ(results.document().find("errors"), nullptr);
    EXPECT_EQ(sweep.errorCount(), 0u);
}

TEST(SweepContainment, DocumentByteIdenticalAcrossThreadCounts)
{
    auto run = [](unsigned jobs) {
        bench::ResultsWriter results("containment_det_probe");
        bench::SweepRunner sweep(&results);
        buildSweep(sweep, "sim_error");
        sweep.run(jobs);
        return results.document().dump(2);
    };
    std::string serial = run(1);
    EXPECT_EQ(serial, run(4));
    EXPECT_EQ(serial, run(8));
}

TEST(SweepContainment, FinishPropagatesContainedFailures)
{
    fs::path dir = fs::temp_directory_path() / "ccache_finish_probe";
    fs::remove_all(dir);
    ::setenv("CCACHE_RESULTS_DIR", dir.string().c_str(), 1);

    {
        bench::ResultsWriter results("finish_clean");
        bench::SweepRunner sweep(&results);
        sweep.add("pt", [](bench::SweepContext &ctx) {
            ctx.metric("pt.v", 1.0);
        });
        sweep.run(1);
        EXPECT_EQ(bench::finish(results, sweep), 0);
        EXPECT_EQ(bench::finish(results, sweep, /*ok=*/false), 1);
    }
    {
        bench::ResultsWriter results("finish_failing");
        bench::SweepRunner sweep(&results);
        buildSweep(sweep, "sim_error");
        sweep.run(1);
        EXPECT_EQ(bench::finish(results, sweep), 1);
        // The result file still landed, with the error section inside.
        std::ifstream in(dir / "finish_failing.json");
        ASSERT_TRUE(in.good());
        std::stringstream buf;
        buf << in.rdbuf();
        EXPECT_NE(buf.str().find("\"errors\""), std::string::npos);
    }

    ::unsetenv("CCACHE_RESULTS_DIR");
    fs::remove_all(dir);
}

} // namespace
