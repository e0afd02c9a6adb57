/**
 * @file
 * Tests for the log-bucketed latency histogram (StatLogHistogram): the
 * HDR-style bucket geometry, the quantile error bound the serving
 * layer's tail-latency reporting relies on, the fixed 4-bit resolution,
 * and the versioned JSON export ("log_histograms" section, schema v2).
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "common/json.hh"
#include "common/stats.hh"

namespace ccache {
namespace {

TEST(StatLogHistogram, EmptyIsAllZero)
{
    StatLogHistogram h("lat");
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.quantile(0.99), 0u);
}

TEST(StatLogHistogram, TracksExactSummaryStats)
{
    StatLogHistogram h("lat");
    for (std::uint64_t v : {7u, 100u, 3u, 1000u})
        h.sample(v);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.min(), 3u);
    EXPECT_EQ(h.max(), 1000u);
    EXPECT_DOUBLE_EQ(h.mean(), (7.0 + 100.0 + 3.0 + 1000.0) / 4.0);
}

TEST(StatLogHistogram, BucketBoundsRoundTrip)
{
    StatLogHistogram h("lat");
    for (std::uint64_t v : {0u, 1u, 15u, 16u, 17u, 255u, 256u, 1000000u}) {
        std::size_t idx = h.bucketIndex(v);
        EXPECT_GE(v, h.bucketLowerBound(idx)) << "value " << v;
        EXPECT_LE(v, h.bucketUpperBound(idx)) << "value " << v;
    }
}

/** The documented resolution contract: with 16 sub-buckets per octave
 *  a bucket's relative width is at most 1/16 = 6.25%, so quantile()
 *  over-reports by at most that much. */
TEST(StatLogHistogram, QuantileErrorBounded)
{
    StatLogHistogram h("lat");
    for (std::uint64_t v = 1; v <= 100000; v += 7)
        h.sample(v);
    for (double q : {0.5, 0.9, 0.99, 0.999}) {
        // Exact quantile of the arithmetic ramp 1, 8, 15, ...
        std::uint64_t n = h.count();
        std::uint64_t rank =
            static_cast<std::uint64_t>(q * static_cast<double>(n) + 0.5);
        std::uint64_t exact = 1 + 7 * (rank ? rank - 1 : 0);
        std::uint64_t est = h.quantile(q);
        EXPECT_GE(est, exact * 15 / 16) << "q=" << q;
        EXPECT_LE(est, exact + exact / 16 + 1) << "q=" << q;
    }
    EXPECT_EQ(h.quantile(1.0), h.max());
}

TEST(StatLogHistogram, ResolutionIsFourSubBucketBits)
{
    // 16 exact buckets below 16, then 16 sub-buckets per octave; the
    // export names the resolution.
    static_assert(StatLogHistogram::kSubBucketBits == 4);
    StatRegistry reg;
    StatLogHistogram &h = reg.logHistogram("lat");
    EXPECT_EQ(h.bucketIndex(15), 15u);
    EXPECT_EQ(h.bucketIndex(16), 16u);
    EXPECT_EQ(h.bucketIndex(32), 32u);
    EXPECT_EQ(h.bucketLowerBound(h.bucketIndex(1000)), 992u);
    EXPECT_EQ(h.bucketUpperBound(h.bucketIndex(1000)), 1023u);
    h.sample(1000);
    Json doc = reg.dumpJson();
    EXPECT_EQ(doc["log_histograms"]["lat"]["sub_bucket_bits"].asNumber(),
              4.0);
}

TEST(StatLogHistogram, ResetClears)
{
    StatLogHistogram h("lat");
    h.sample(42);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.quantile(0.5), 0u);
}

TEST(StatRegistry, LogHistogramsRegisterAndExport)
{
    StatRegistry reg;
    StatLogHistogram &h =
        reg.group("serve").group("t0").logHistogram("queue_cycles",
                                                    "queue wait");
    for (std::uint64_t v = 1; v <= 64; ++v)
        h.sample(v);
    ASSERT_NE(reg.logHistogramAt("serve.t0.queue_cycles"), nullptr);
    EXPECT_EQ(reg.logHistogramAt("absent"), nullptr);

    Json doc = reg.dumpJson();
    EXPECT_EQ(doc["version"].asNumber(), kStatsSchemaVersion);
    EXPECT_EQ(kStatsSchemaVersion, 3);
    Json &lh = doc["log_histograms"]["serve.t0.queue_cycles"];
    EXPECT_EQ(lh["count"].asNumber(), 64.0);
    EXPECT_EQ(lh["min"].asNumber(), 1.0);
    EXPECT_EQ(lh["max"].asNumber(), 64.0);
}

} // namespace
} // namespace ccache
