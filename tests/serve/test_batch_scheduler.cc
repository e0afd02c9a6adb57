/**
 * @file
 * Scheduler-level acceptance tests for the serving layer (DESIGN.md
 * §11): the batch policy's throughput win over serial FIFO issue at
 * saturation, wave coalescing, the QoS bound on a high-priority
 * tenant's tail queueing under an adversarial background tenant, and
 * the starvation guard that bound rests on.
 */

#include <gtest/gtest.h>

#include "serve/server.hh"
#include "sim/system.hh"
#include "workload/traffic_gen.hh"

namespace ccache::serve {
namespace {

constexpr std::uint64_t kSeed = 0xacce55ed;

workload::TrafficParams
saturatingTraffic(unsigned tenants, std::size_t requests)
{
    workload::TrafficParams params;
    params.totalRequests = requests;
    params.seed = kSeed;
    for (unsigned i = 0; i < tenants; ++i) {
        workload::TenantTraffic t;
        t.name = "t" + std::to_string(i);
        t.requestsPerKilocycle = 64.0 / tenants;
        t.minBytes = 256;
        t.maxBytes = 1024;
        if (i != 0) {
            t.weightCmp = 0.5;
            t.scatterFraction = 0.05;
        }
        params.tenants.push_back(std::move(t));
    }
    return params;
}

ServeReport
runSaturated(sim::System &sys, unsigned tenants, ServePolicy policy)
{
    ServerParams params;
    params.sched.policy = policy;
    params.sched.waveSize = 32;
    params.sched.perTenantWaveCap = 16;
    params.allocGroups = 256;
    params.tenants.clear();
    for (unsigned i = 0; i < tenants; ++i)
        params.tenants.push_back(
            TenantQos{"t" + std::to_string(i), i == 0 ? 4u : 1u, 64});
    CcServer server(sys, params);
    return server.run(generateTraffic(saturatingTraffic(tenants, 800)));
}

/** The headline claim: at saturating load, wave batching delivers at
 *  least 2x the serial-issue FIFO baseline's throughput. */
TEST(BatchScheduler, BatchDoublesFifoThroughputAtSaturation)
{
    for (unsigned tenants : {2u, 4u}) {
        sim::System fifo_sys, batch_sys;
        ServeReport fifo =
            runSaturated(fifo_sys, tenants, ServePolicy::FifoSerial);
        ServeReport batch =
            runSaturated(batch_sys, tenants, ServePolicy::Batch);
        ASSERT_GT(fifo.throughputRpmc, 0.0);
        double speedup = batch.throughputRpmc / fifo.throughputRpmc;
        EXPECT_GE(speedup, 2.0)
            << "batch " << batch.throughputRpmc << " rpMc vs fifo "
            << fifo.throughputRpmc << " rpMc with " << tenants << " tenants";
        // Batching also sheds (rejects) less of the same offered load.
        EXPECT_LE(batch.rejected, fifo.rejected);
    }
}

TEST(BatchScheduler, WavesActuallyCoalesce)
{
    sim::System sys;
    ServeReport report = runSaturated(sys, 2, ServePolicy::Batch);
    const StatRegistry &reg = sys.stats();
    std::uint64_t waves = reg.value("serve.waves");
    ASSERT_GT(waves, 0u);
    // Mean occupancy well above one request per wave at saturation.
    EXPECT_GE(static_cast<double>(report.served) /
                  static_cast<double>(waves),
              4.0);
    // Multi-chunk (cmp > 512 B) requests rode in shared waves.
    EXPECT_GT(reg.value("serve.chunked_requests"), 0u);
}

TEST(BatchScheduler, FifoServesOneRequestPerWave)
{
    sim::System sys;
    ServeReport report = runSaturated(sys, 2, ServePolicy::FifoSerial);
    EXPECT_EQ(sys.stats().value("serve.waves"), report.served);
}

/** The QoS claim: an adversarial background tenant (10x the service
 *  capacity, oversized scattered requests) cannot push the
 *  high-priority tenant's p99 queueing past the starvation bound. */
TEST(BatchScheduler, HiPriorityTailBoundedUnderAdversarialLoad)
{
    workload::TrafficParams traffic;
    traffic.totalRequests = 500;
    traffic.seed = kSeed;
    workload::TenantTraffic hi;
    hi.name = "hi";
    hi.requestsPerKilocycle = 0.5;
    hi.minBytes = 256;
    hi.maxBytes = 1024;
    workload::TenantTraffic bg;
    bg.name = "bg";
    bg.requestsPerKilocycle = 40.0;
    bg.minBytes = 4096;
    bg.maxBytes = 16384;
    bg.weightCmp = 0.25;
    bg.scatterFraction = 0.3;
    traffic.tenants = {hi, bg};

    sim::System sys;
    ServerParams params;
    params.tenants = {TenantQos{"hi", 8, 64}, TenantQos{"bg", 1, 32}};
    CcServer server(sys, params);
    ServeReport report = server.run(generateTraffic(traffic));

    ASSERT_EQ(report.tenants.size(), 2u);
    const ServeReport::TenantSummary &hi_sum = report.tenants[0];
    const ServeReport::TenantSummary &bg_sum = report.tenants[1];
    EXPECT_GT(hi_sum.served, 0u);
    EXPECT_LE(hi_sum.p99QueueCycles, kStarvationAgeCycles);
    // The background tenant absorbs the shed load, not the hi tenant.
    EXPECT_EQ(hi_sum.rejected, 0u);
    EXPECT_GT(report.rejected, 0u);
    EXPECT_GT(bg_sum.rejected, 0u);
    // Rejections surface as the structured JSON record.
    EXPECT_EQ(report.rejections["total"].asNumber(),
              static_cast<double>(report.rejected));
    EXPECT_GT(report.rejections["samples"].asArray().size(), 0u);
}

/** The starvation guard: a request pending longer than
 *  kStarvationAgeCycles opens the next wave ahead of DRR order. */
TEST(BatchScheduler, StarvationGuardPreemptsDrr)
{
    // A light tenant's oversized request is queued at cycle 0 behind a
    // heavy tenant that DRR serves first (tenant 0, weight 8).
    auto firstOfWave = [](Cycles now, std::uint64_t *picks) {
        sim::System sys;
        std::vector<TenantQos> tenants = {TenantQos{"heavy", 8, 64},
                                          TenantQos{"light", 1, 64}};
        StatGroup g = sys.stats().group("serve");
        RequestQueue queue(QueueParams{}, tenants, g);
        BatchScheduler sched(sys, queue, tenants, SchedulerParams{}, g);
        geometry::LocalityAllocator alloc(kHeapBase, 1 << 20);
        auto offer = [&](RequestId id, TenantId tenant, Cycles arrival,
                         std::size_t bytes) {
            workload::RequestSpec spec;
            spec.arrival = arrival;
            spec.tenant = tenant;
            spec.op = cc::CcOpcode::Copy;
            spec.bytes = bytes;
            std::optional<Request> req = buildRequest(
                sys, alloc, RequestBuildParams{}, spec, id, nullptr);
            ASSERT_TRUE(req.has_value());
            ASSERT_FALSE(queue.offer(*req, arrival).has_value());
        };
        offer(0, 1, 0, 16384);
        for (RequestId id = 1; id <= 8; ++id)
            offer(id, 0, 1, 256);
        BatchScheduler::Wave wave = sched.dispatch(now);
        *picks = sys.stats().value("serve.starvation_picks");
        return wave.requests.empty() ? RequestId{99}
                                     : wave.requests.front().id;
    };
    // At exactly the age bound DRR order stands; one cycle later the
    // starving request (id 0) opens the wave.
    std::uint64_t picks = 0;
    EXPECT_EQ(firstOfWave(kStarvationAgeCycles, &picks), 1u);
    EXPECT_EQ(picks, 0u);
    EXPECT_EQ(firstOfWave(kStarvationAgeCycles + 1, &picks), 0u);
    EXPECT_EQ(picks, 1u);
}

} // namespace
} // namespace ccache::serve
