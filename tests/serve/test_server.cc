/**
 * @file
 * End-to-end server tests: determinism of the full report (the §8
 * contract at the serving layer), request building/chunking, buffer
 * recycling balance, and the JSON report shape.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "serve/server.hh"
#include "sim/system.hh"
#include "workload/traffic_gen.hh"

namespace ccache::serve {
namespace {

workload::TrafficParams
mixedTraffic(std::uint64_t seed)
{
    workload::TrafficParams traffic;
    traffic.totalRequests = 300;
    traffic.seed = seed;
    workload::TenantTraffic a;
    a.name = "alpha";
    a.requestsPerKilocycle = 8.0;
    a.minBytes = 256;
    a.maxBytes = 2048;
    a.weightCmp = 0.5;          // sizes > 512 B exercise chunking
    a.weightBuz = 0.5;
    a.weightNot = 0.5;
    workload::TenantTraffic b;
    b.name = "beta";
    b.requestsPerKilocycle = 8.0;
    b.minBytes = 1024;
    b.maxBytes = 16384;
    b.scatterFraction = 0.2;
    traffic.tenants = {a, b};
    return traffic;
}

ServerParams
twoTenantParams()
{
    ServerParams params;
    params.tenants = {TenantQos{"alpha", 2, 64}, TenantQos{"beta", 1, 64}};
    return params;
}

TEST(CcServer, ReportIsDeterministic)
{
    std::string dumps[2];
    for (std::string &out : dumps) {
        sim::System sys;
        CcServer server(sys, twoTenantParams());
        ServeReport report = server.run(generateTraffic(mixedTraffic(42)));
        out = report.toJson().dump(2);
    }
    EXPECT_EQ(dumps[0], dumps[1]);
    EXPECT_FALSE(dumps[0].empty());
}

TEST(CcServer, AccountingBalances)
{
    sim::System sys;
    CcServer server(sys, twoTenantParams());
    ServeReport report = server.run(generateTraffic(mixedTraffic(7)));
    EXPECT_EQ(report.offered, 300u);
    EXPECT_EQ(report.admitted + report.rejected, report.offered);
    EXPECT_EQ(report.served, report.admitted);   // run drains the queue
    std::uint64_t tenant_served = 0;
    for (const ServeReport::TenantSummary &t : report.tenants)
        tenant_served += t.served;
    EXPECT_EQ(tenant_served, report.served);
    EXPECT_GT(report.elapsed, 0u);
    EXPECT_GT(report.throughputRpmc, 0.0);
}

TEST(CcServer, RecyclesEveryOperandBuffer)
{
    sim::System sys;
    CcServer server(sys, twoTenantParams());
    server.run(generateTraffic(mixedTraffic(9)));
    geometry::LocalityAllocator &alloc = server.allocator();
    // Every buffer ever handed out came back: the free list holds all
    // non-padding bytes and churn was satisfied largely from reuse.
    EXPECT_EQ(alloc.freeBytes(), alloc.used() - alloc.padding());
    EXPECT_GT(alloc.reuses(), 0u);
}

TEST(CcServer, LatencyHistogramsPopulated)
{
    sim::System sys;
    CcServer server(sys, twoTenantParams());
    ServeReport report = server.run(generateTraffic(mixedTraffic(11)));
    const StatRegistry &reg = sys.stats();
    for (const char *tenant : {"alpha", "beta"}) {
        for (const char *metric :
             {"queue_cycles", "service_cycles", "sojourn_cycles"}) {
            const StatLogHistogram *h = reg.logHistogramAt(
                std::string("serve.") + tenant + "." + metric);
            ASSERT_NE(h, nullptr) << tenant << "." << metric;
            EXPECT_GT(h->count(), 0u) << tenant << "." << metric;
        }
    }
    for (const ServeReport::TenantSummary &t : report.tenants) {
        EXPECT_GE(t.p99QueueCycles, t.p50QueueCycles);
        EXPECT_GE(t.p999QueueCycles, t.p99QueueCycles);
        EXPECT_GE(t.p99ServiceCycles, t.p50ServiceCycles);
        EXPECT_GT(t.meanSojournCycles, 0.0);
    }
}

TEST(CcServer, ReportJsonShape)
{
    sim::System sys;
    CcServer server(sys, twoTenantParams());
    ServeReport report = server.run(generateTraffic(mixedTraffic(13)));
    Json doc = report.toJson();
    for (const char *key : {"offered", "admitted", "served", "rejected",
                            "elapsed_cycles", "throughput_rpmc"})
        EXPECT_TRUE(doc.find(key) != nullptr) << key;
    for (const char *tenant : {"alpha", "beta"}) {
        const Json *t = doc["tenants"].find(tenant);
        ASSERT_NE(t, nullptr) << tenant;
        EXPECT_TRUE(t->find("p99_queue_cycles") != nullptr);
        EXPECT_TRUE(t->find("mean_sojourn_cycles") != nullptr);
    }
    EXPECT_TRUE(doc.find("rejections") != nullptr);

    // Round-trips through the parser.
    std::string err;
    Json parsed = Json::parse(doc.dump(2), &err);
    EXPECT_TRUE(err.empty()) << err;
    EXPECT_TRUE(parsed.isObject());
}

TEST(CcServer, RejectsDuplicateTenantNames)
{
    sim::System sys;
    ServerParams params;
    params.tenants = {TenantQos{"same", 1, 8}, TenantQos{"same", 1, 8}};
    EXPECT_THROW((void)CcServer(sys, params), FatalError);
}

TEST(CcServer, RejectsNonsensicalParams)
{
    auto build = [](auto &&mutate) {
        ServerParams params = twoTenantParams();
        mutate(params);
        sim::System sys;
        CcServer server(sys, params);
    };
    EXPECT_THROW(build([](ServerParams &p) { p.tenants.clear(); }),
                 FatalError);
    EXPECT_THROW(build([](ServerParams &p) { p.queue.capacity = 0; }),
                 FatalError);
    EXPECT_THROW(build([](ServerParams &p) { p.sched.waveSize = 0; }),
                 FatalError);
    EXPECT_THROW(
        build([](ServerParams &p) { p.sched.perTenantWaveCap = 0; }),
        FatalError);
    EXPECT_THROW(build([](ServerParams &p) { p.allocGroups = 0; }),
                 FatalError);
    EXPECT_NO_THROW(build([](ServerParams &) {}));
}

} // namespace
} // namespace ccache::serve
