/**
 * @file
 * Tests for the multi-tenant Poisson traffic generator: determinism
 * (the serving §8 contract starts here), the (arrival, tenant) sort
 * order, size/op-mix plumbing and scatter marking.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/logging.hh"
#include "workload/traffic_gen.hh"

namespace ccache::workload {
namespace {

TrafficParams
twoTenants()
{
    TrafficParams params;
    params.totalRequests = 500;
    params.seed = 0x1234;
    TenantTraffic a;
    a.name = "a";
    a.requestsPerKilocycle = 2.0;
    a.minBytes = 256;
    a.maxBytes = 1024;
    TenantTraffic b;
    b.name = "b";
    b.requestsPerKilocycle = 8.0;
    b.minBytes = 1024;
    b.maxBytes = 8192;
    b.scatterFraction = 1.0;
    params.tenants = {a, b};
    return params;
}

TEST(TrafficGen, DeterministicAndSorted)
{
    TrafficParams params = twoTenants();
    std::vector<RequestSpec> x = generateTraffic(params);
    std::vector<RequestSpec> y = generateTraffic(params);
    ASSERT_EQ(x.size(), params.totalRequests);
    ASSERT_EQ(y.size(), x.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
        EXPECT_EQ(x[i].arrival, y[i].arrival);
        EXPECT_EQ(x[i].tenant, y[i].tenant);
        EXPECT_EQ(x[i].op, y[i].op);
        EXPECT_EQ(x[i].bytes, y[i].bytes);
        EXPECT_EQ(x[i].scattered, y[i].scattered);
    }
    EXPECT_TRUE(std::is_sorted(x.begin(), x.end(),
                               [](const RequestSpec &l, const RequestSpec &r) {
                                   return l.arrival != r.arrival
                                              ? l.arrival < r.arrival
                                              : l.tenant < r.tenant;
                               }));
}

TEST(TrafficGen, SeedChangesTheStream)
{
    TrafficParams params = twoTenants();
    std::vector<RequestSpec> x = generateTraffic(params);
    params.seed ^= 1;
    std::vector<RequestSpec> y = generateTraffic(params);
    bool differs = false;
    for (std::size_t i = 0; i < x.size() && !differs; ++i)
        differs = x[i].arrival != y[i].arrival || x[i].bytes != y[i].bytes;
    EXPECT_TRUE(differs);
}

TEST(TrafficGen, SizesBlockRoundedWithinRange)
{
    std::vector<RequestSpec> specs = generateTraffic(twoTenants());
    for (const RequestSpec &s : specs) {
        EXPECT_EQ(s.bytes % 64, 0u);
        if (s.tenant == 0) {
            EXPECT_GE(s.bytes, 256u);
            EXPECT_LE(s.bytes, 1024u);
        } else {
            EXPECT_GE(s.bytes, 1024u);
            EXPECT_LE(s.bytes, 8192u);
        }
    }
}

TEST(TrafficGen, RateRatioApproximatelyHonored)
{
    std::vector<RequestSpec> specs = generateTraffic(twoTenants());
    std::size_t a = 0, b = 0;
    for (const RequestSpec &s : specs)
        (s.tenant == 0 ? a : b)++;
    // b offers 4x a's rate; the merged 500-request prefix should be
    // roughly 1:4 (loose bounds, it is a stochastic process).
    EXPECT_GT(b, 3 * a / 2);
    EXPECT_GT(a, 20u);
}

TEST(TrafficGen, ScatterFractionMarksRequests)
{
    std::vector<RequestSpec> specs = generateTraffic(twoTenants());
    for (const RequestSpec &s : specs) {
        if (s.tenant == 0)
            EXPECT_FALSE(s.scattered);   // fraction 0
        else
            EXPECT_TRUE(s.scattered);    // fraction 1
    }
}

TEST(TrafficGen, ZeroWeightOpsNeverOccur)
{
    TrafficParams params = twoTenants();
    for (TenantTraffic &t : params.tenants) {
        t.weightAnd = 0.0;
        t.weightOr = 0.0;
        t.weightXor = 0.0;
        t.weightCopy = 1.0;
        t.weightSearch = 0.0;
        t.weightCmp = 0.0;
    }
    for (const RequestSpec &s : generateTraffic(params))
        EXPECT_EQ(s.op, cc::CcOpcode::Copy);
}

TEST(TrafficGen, OversizedRequestsAreLegal)
{
    // Sizes beyond the ISA per-op limit are the server's problem (it
    // chunks them); the generator must pass them through untouched.
    TrafficParams params;
    params.totalRequests = 50;
    TenantTraffic t;
    t.requestsPerKilocycle = 1.0;
    t.minBytes = 4096;
    t.maxBytes = 4096;
    t.weightCmp = 1.0;
    t.weightAnd = t.weightOr = t.weightXor = 0.0;
    t.weightCopy = t.weightSearch = 0.0;
    params.tenants = {t};
    for (const RequestSpec &s : generateTraffic(params)) {
        EXPECT_EQ(s.op, cc::CcOpcode::Cmp);
        EXPECT_EQ(s.bytes, 4096u);   // > kMaxCmpBytes, not clamped
    }
}

TEST(TrafficGen, KeysZeroUnlessZipfEnabled)
{
    for (const RequestSpec &s : generateTraffic(twoTenants())) {
        EXPECT_EQ(s.key, 0u);
        EXPECT_EQ(s.fanout, 1u);
    }
}

TEST(TrafficGen, ZipfKeysInRangeAndSkewed)
{
    TrafficParams params = twoTenants();
    params.totalRequests = 2000;
    params.zipfKeys = 100000;
    params.keyExponent = 1.0;
    std::vector<RequestSpec> specs = generateTraffic(params);
    std::size_t hot = 0;
    for (const RequestSpec &s : specs) {
        EXPECT_GE(s.key, 1u);
        EXPECT_LE(s.key, params.zipfKeys);
        if (s.key <= params.zipfKeys / 100)
            ++hot;
    }
    // Zipf(1.0): the hottest 1% of keys draws far more than 1% of
    // traffic (~40% at this size); require a conservative quarter.
    EXPECT_GT(hot, specs.size() / 4);
}

TEST(TrafficGen, ZipfKeysPreserveArrivalStream)
{
    // Key draws ride after the per-request mix draws; arrivals, ops
    // and sizes must replay exactly what the keyless config produced.
    TrafficParams base = twoTenants();
    TrafficParams keyed = twoTenants();
    keyed.zipfKeys = 1 << 20;
    std::vector<RequestSpec> x = generateTraffic(base);
    std::vector<RequestSpec> y = generateTraffic(keyed);
    ASSERT_EQ(x.size(), y.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
        EXPECT_EQ(x[i].arrival, y[i].arrival);
        EXPECT_EQ(x[i].tenant, y[i].tenant);
        EXPECT_EQ(x[i].op, y[i].op);
        EXPECT_EQ(x[i].bytes, y[i].bytes);
    }
}

TEST(TrafficGen, RatePhasesShiftArrivalDensity)
{
    TrafficParams params;
    params.totalRequests = 600;
    params.seed = 99;
    TenantTraffic t;
    t.name = "surge";
    t.requestsPerKilocycle = 1.0;
    t.phases = {{50000, 8.0}, {100000, 1.0}};
    params.tenants = {t};
    std::vector<RequestSpec> specs = generateTraffic(params);
    std::size_t pre = 0, surge = 0;
    for (const RequestSpec &s : specs) {
        if (s.arrival < 50000)
            ++pre;
        else if (s.arrival < 100000)
            ++surge;
    }
    // Equal-length windows at 1x vs 8x rate: the surge window must
    // carry several times the pre-window count.
    EXPECT_GT(surge, 3 * pre);
    EXPECT_GT(pre, 10u);
}

TEST(TrafficGen, UnitMultiplierPhaseIsStreamInvisible)
{
    // A phase that does not change the rate must not change the draw
    // stream either: phase handling consumes no extra randomness.
    TrafficParams base = twoTenants();
    TrafficParams phased = twoTenants();
    for (TenantTraffic &t : phased.tenants)
        t.phases = {{40000, 1.0}};
    std::vector<RequestSpec> x = generateTraffic(base);
    std::vector<RequestSpec> y = generateTraffic(phased);
    ASSERT_EQ(x.size(), y.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
        EXPECT_EQ(x[i].arrival, y[i].arrival);
        EXPECT_EQ(x[i].bytes, y[i].bytes);
    }
}

TEST(TrafficGen, FanoutFractionMarksLegs)
{
    TrafficParams params = twoTenants();
    params.tenants[1].fanoutFraction = 1.0;
    params.tenants[1].fanoutLegs = 5;
    for (const RequestSpec &s : generateTraffic(params)) {
        if (s.tenant == 0)
            EXPECT_EQ(s.fanout, 1u);
        else
            EXPECT_EQ(s.fanout, 5u);
    }
}

TEST(TrafficGen, FanoutOnOneTenantDoesNotPerturbOthers)
{
    // Per-tenant RNG streams: enabling fan-out draws on tenant b must
    // leave tenant a's request sequence bit-identical.
    TrafficParams base = twoTenants();
    TrafficParams fan = twoTenants();
    fan.tenants[1].fanoutFraction = 0.5;
    std::vector<RequestSpec> x = generateTraffic(base);
    std::vector<RequestSpec> y = generateTraffic(fan);
    std::vector<RequestSpec> xa, ya;
    for (const RequestSpec &s : x)
        if (s.tenant == 0)
            xa.push_back(s);
    for (const RequestSpec &s : y)
        if (s.tenant == 0)
            ya.push_back(s);
    // The merged 500-request prefix can cut the per-tenant streams at
    // slightly different points; compare the common prefix.
    std::size_t n = std::min(xa.size(), ya.size());
    ASSERT_GT(n, 20u);
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(xa[i].arrival, ya[i].arrival);
        EXPECT_EQ(xa[i].bytes, ya[i].bytes);
        EXPECT_EQ(xa[i].fanout, 1u);
    }
}

/** Each malformed traffic configuration is a FatalError naming the
 *  problem, not a panic. */
TEST(TrafficGen, RejectsMalformedConfigs)
{
    TrafficParams none = twoTenants();
    none.tenants.clear();
    EXPECT_THROW(generateTraffic(none), FatalError);

    TrafficParams idle = twoTenants();
    idle.tenants[1].requestsPerKilocycle = 0.0;
    EXPECT_THROW(generateTraffic(idle), FatalError);

    TrafficParams unsorted = twoTenants();
    unsorted.tenants[0].phases = {{100000, 8.0}, {50000, 1.0}};
    EXPECT_THROW(generateTraffic(unsorted), FatalError);

    TrafficParams stalled = twoTenants();
    stalled.tenants[0].phases = {{0, 0.0}};
    EXPECT_THROW(generateTraffic(stalled), FatalError);

    TrafficParams no_ops = twoTenants();
    TenantTraffic &t = no_ops.tenants[0];
    t.weightAnd = t.weightOr = t.weightXor = t.weightCopy = 0.0;
    t.weightSearch = t.weightCmp = t.weightBuz = t.weightNot = 0.0;
    EXPECT_THROW(generateTraffic(no_ops), FatalError);
}

} // namespace
} // namespace ccache::workload
