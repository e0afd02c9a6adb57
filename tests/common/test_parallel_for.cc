/**
 * @file
 * Tests for parallelFor, the run harness's one fan-out function, and
 * defaultJobs, its $CCACHE_JOBS resolution: every index runs exactly
 * once and writes its own slot at batch sizes around the thread count,
 * one job runs inline in index order, the thread count never exceeds
 * the task count, the lowest failing index's exception surfaces after
 * every index ran (inline and threaded), and a malformed $CCACHE_JOBS
 * warns.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel_for.hh"

namespace ccache {
namespace {

TEST(ParallelFor, RunsEveryIndexExactlyOnce)
{
    for (unsigned jobs : {1u, 3u, 8u}) {
        std::vector<std::atomic<int>> hits(2000);
        parallelFor(jobs, hits.size(),
                    [&](std::size_t i) { hits[i].fetch_add(1); });
        for (std::size_t i = 0; i < hits.size(); ++i)
            EXPECT_EQ(hits[i].load(), 1) << "index " << i << " at "
                                         << jobs << " jobs";
    }
}

TEST(ParallelFor, CoversAllIndices)
{
    // Batches smaller than, equal to and larger than the thread count:
    // each index writes its own slot, and no slot is left unwritten.
    for (std::size_t n : {1u, 2u, 3u, 4u, 257u}) {
        std::vector<int> out(n, 0);
        parallelFor(3, n, [&](std::size_t i) {
            out[i] = static_cast<int>(i) + 1;
        });
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(out[i], static_cast<int>(i) + 1)
                << "index " << i << " of " << n;
    }
}

TEST(ParallelFor, OneJobRunsInlineInIndexOrder)
{
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::size_t> order;
    bool onCaller = true;
    parallelFor(1, 16, [&](std::size_t i) {
        onCaller &= std::this_thread::get_id() == caller;
        order.push_back(i);
    });
    EXPECT_TRUE(onCaller);
    ASSERT_EQ(order.size(), 16u);
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

TEST(ParallelFor, NeverMoreThreadsThanTasks)
{
    std::mutex mu;
    std::set<std::thread::id> threads;
    std::atomic<int> ran{0};
    parallelFor(64, 3, [&](std::size_t) {
        // Hold each task long enough that idle threads, had any been
        // started, would have to show up.
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        std::lock_guard<std::mutex> lock(mu);
        threads.insert(std::this_thread::get_id());
        ran.fetch_add(1);
    });
    EXPECT_EQ(ran.load(), 3);
    EXPECT_LE(threads.size(), 3u);

    parallelFor(64, 0, [&](std::size_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 3);
}

TEST(ParallelFor, UnevenTasksLoadBalance)
{
    // A few long tasks among many short ones: the shared cursor hands
    // the short ones to whichever thread is free, and all complete.
    std::atomic<int> done{0};
    parallelFor(4, 64, [&](std::size_t i) {
        if (i % 16 == 0)
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        done.fetch_add(1);
    });
    EXPECT_EQ(done.load(), 64);
}

TEST(ParallelFor, OneJobRunsEveryIndexThenRethrows)
{
    // Inline, a throw does not stop the batch: the later indices still
    // run on the caller in order, and the first failure surfaces last.
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::size_t> order;
    bool onCaller = true;
    try {
        parallelFor(1, 32, [&](std::size_t i) {
            onCaller &= std::this_thread::get_id() == caller;
            order.push_back(i);
            if (i == 7 || i == 21)
                throw std::runtime_error("index " + std::to_string(i));
        });
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "index 7");
    }
    EXPECT_TRUE(onCaller);
    ASSERT_EQ(order.size(), 32u);
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

TEST(ParallelFor, RethrowsLowestFailingIndex)
{
    for (unsigned jobs : {2u, 8u}) {
        std::vector<std::atomic<int>> hits(32);
        try {
            parallelFor(jobs, hits.size(), [&](std::size_t i) {
                hits[i].fetch_add(1);
                if (i == 7 || i == 21)
                    throw std::runtime_error("index " + std::to_string(i));
            });
            FAIL() << "expected an exception at " << jobs << " jobs";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "index 7") << jobs << " jobs";
        }
        for (std::size_t i = 0; i < hits.size(); ++i)
            EXPECT_EQ(hits[i].load(), 1) << "index " << i << " at "
                                         << jobs << " jobs";
    }
}

/** defaultJobs() with $CCACHE_JOBS set to @p value (unset when null);
 *  what it printed lands in @p err. The caller's value is restored. */
unsigned
defaultJobsWith(const char *value, std::string &err)
{
    const char *old = std::getenv("CCACHE_JOBS");
    std::optional<std::string> saved;
    if (old)
        saved = old;
    if (value)
        ::setenv("CCACHE_JOBS", value, 1);
    else
        ::unsetenv("CCACHE_JOBS");
    testing::internal::CaptureStderr();
    unsigned jobs = defaultJobs();
    err = testing::internal::GetCapturedStderr();
    if (saved)
        ::setenv("CCACHE_JOBS", saved->c_str(), 1);
    else
        ::unsetenv("CCACHE_JOBS");
    return jobs;
}

unsigned
hardwareThreads()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

TEST(DefaultJobs, HonorsEnvironment)
{
    std::string err;
    EXPECT_EQ(defaultJobsWith("3", err), 3u);
    EXPECT_EQ(err, "");
}

TEST(DefaultJobs, FallsBackToHardwareThreads)
{
    std::string err;
    EXPECT_EQ(defaultJobsWith(nullptr, err), hardwareThreads());
    EXPECT_GE(hardwareThreads(), 1u);
    EXPECT_EQ(err, "");
}

TEST(DefaultJobs, WarnsOnceOnMalformedValue)
{
    for (const char *bad : {"4abc", "abc", "0", "99999999999", "-1", "+4",
                            " 4", ""}) {
        std::string err;
        EXPECT_EQ(defaultJobsWith(bad, err), hardwareThreads())
            << "'" << bad << "'";
        EXPECT_EQ(err.rfind("warn: ", 0), 0u) << err;
        EXPECT_NE(err.find("'" + std::string(bad) + "'"), std::string::npos)
            << err;
        EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), 1) << err;
    }
}

} // namespace
} // namespace ccache
