/**
 * @file
 * Tests for the fleet controller layered over the shard router
 * (DESIGN.md §15): the cross-shard fan-out/fan-in barrier and its
 * partial_result degradation, live tenant migration under hot-spot
 * surges (including a source-shard crash mid-handoff), and the
 * fleet-wide backpressure budget's QoS ordering.
 */

#include <gtest/gtest.h>

#include <string>

#include "serve/shard_router.hh"
#include "workload/traffic_gen.hh"

namespace ccache::serve {
namespace {

constexpr unsigned kShards = 4;

ServerParams
makeServe(std::vector<unsigned> weights)
{
    ServerParams params;
    params.tenants.clear();
    for (std::size_t i = 0; i < weights.size(); ++i) {
        TenantQos q;
        q.name = "t" + std::to_string(i);
        q.weight = weights[i];
        params.tenants.push_back(std::move(q));
    }
    return params;
}

RouterParams
makeRouter()
{
    RouterParams router;
    router.shards = kShards;
    router.admissionDeadline = 60000;
    router.shardTimeout = 20000;
    router.verifyGolden = true;
    return router;
}

struct TenantKnobs
{
    double rate = 0.5;
    double fanoutFraction = 0.0;
    unsigned fanoutLegs = 3;
    std::vector<workload::TenantTraffic::RatePhase> phases;
    std::size_t minBytes = 256;
    std::size_t maxBytes = 4096;
};

std::vector<workload::RequestSpec>
makeTraffic(const std::vector<TenantKnobs> &knobs, std::size_t requests,
            std::uint64_t seed)
{
    workload::TrafficParams traffic;
    traffic.totalRequests = requests;
    traffic.seed = seed;
    traffic.zipfKeys = 1 << 20;
    for (std::size_t i = 0; i < knobs.size(); ++i) {
        workload::TenantTraffic t;
        t.name = "t" + std::to_string(i);
        t.requestsPerKilocycle = knobs[i].rate;
        t.minBytes = knobs[i].minBytes;
        t.maxBytes = knobs[i].maxBytes;
        t.fanoutFraction = knobs[i].fanoutFraction;
        t.fanoutLegs = knobs[i].fanoutLegs;
        t.phases = knobs[i].phases;
        traffic.tenants.push_back(std::move(t));
    }
    return generateTraffic(traffic);
}

TEST(Fleet, FanoutBarrierCommitsWhenEveryLegVerifies)
{
    // Healthy fleet, every request fans out 3 ways: each parent counts
    // once, every leg golden-verifies, nothing degrades to partial.
    std::vector<workload::RequestSpec> specs =
        makeTraffic({{0.5, 1.0, 3, {}}}, 200, 31);
    ShardRouter fleet(sim::SystemConfig{}, makeServe({4}), makeRouter());
    FleetReport report = fleet.run(specs, ChaosSchedule{});

    EXPECT_EQ(report.offered, specs.size());
    EXPECT_EQ(report.served + report.shed, report.offered);
    EXPECT_EQ(report.fanoutParents, report.offered);
    EXPECT_EQ(report.fanoutLegs, 3 * report.fanoutParents);
    EXPECT_EQ(report.fanoutPartial, 0u);
    EXPECT_EQ(report.shed, 0u);
    EXPECT_GT(report.goldenChecked, 0u);
    EXPECT_EQ(report.goldenMismatch, 0u);
}

TEST(Fleet, FanoutLegsLandOnDistinctShards)
{
    // With 4 healthy shards and 3-way fan-out, legs spread along the
    // failover order: at least 3 shards must have served work from a
    // single-tenant all-fan-out stream.
    std::vector<workload::RequestSpec> specs =
        makeTraffic({{0.5, 1.0, 3, {}}}, 150, 33);
    ShardRouter fleet(sim::SystemConfig{}, makeServe({4}), makeRouter());
    FleetReport report = fleet.run(specs, ChaosSchedule{});
    unsigned active = 0;
    for (const FleetReport::ShardSummary &s : report.shards)
        if (s.served > 0)
            ++active;
    EXPECT_GE(active, 3u);
}

TEST(Fleet, FanoutDegradesToPartialResultOnTerminalLegFailure)
{
    // One dispatch attempt and a timeout below big requests' own
    // latency tail: a slice of legs fails terminally, and each such
    // parent must shed as a structured partial_result (never hang the
    // barrier).
    std::vector<workload::RequestSpec> specs =
        makeTraffic({{0.5, 1.0, 3, {}, 4096, 32768}}, 300, 35);
    RouterParams router = makeRouter();
    router.shardTimeout = 250;
    router.retry.maxAttempts = 1;
    ShardRouter fleet(sim::SystemConfig{}, makeServe({4}), router);
    // Storm a shard the legs actually land on: legs walk the tenant's
    // failover order, so order[1] always hosts the second leg.
    ChaosSchedule chaos;
    ChaosEvent ev;
    ev.kind = ChaosKind::Slow;
    ev.shard = fleet.failoverOrder(0)[1];
    ev.start = 2000;
    ev.duration = 600000;
    ev.magnitude = 100.0;
    chaos.events.push_back(ev);
    chaos.canonicalize();
    FleetReport report = fleet.run(specs, chaos);

    EXPECT_EQ(report.served + report.shed, report.offered);
    EXPECT_GT(report.fanoutPartial, 0u);
    EXPECT_EQ(report.goldenMismatch, 0u);
    EXPECT_NE(report.rejections.dump().find("partial_result"),
              std::string::npos);
}

TEST(Fleet, FanoutRunIsDeterministic)
{
    std::vector<workload::RequestSpec> specs =
        makeTraffic({{0.4, 0.5, 3, {}}, {0.4, 0.0, 2, {}}}, 300, 37);
    ChaosSchedule chaos;
    ASSERT_TRUE(ChaosSchedule::parse("crash@30000+80000:2", kShards,
                                     &chaos, nullptr));
    auto once = [&]() {
        RouterParams router = makeRouter();
        router.hedgeAge = 2000;
        ShardRouter fleet(sim::SystemConfig{}, makeServe({4, 2}), router);
        return fleet.run(specs, chaos).toJson().dump();
    };
    EXPECT_EQ(once(), once());
}

std::vector<TenantKnobs>
surgeKnobs(std::size_t tenants, std::size_t hot, double rate = 0.5)
{
    // The hot tenant's rate multiplies 6x over [40000, 260000).
    std::vector<TenantKnobs> knobs(tenants);
    for (TenantKnobs &k : knobs)
        k.rate = rate;
    knobs[hot].phases = {{40000, 6.0}, {260000, 1.0}};
    return knobs;
}

RouterParams
rebalancingRouter()
{
    RouterParams router = makeRouter();
    router.rebalancePeriod = 5000;
    router.hotspotRatio = 2.0;
    router.hotspotMinLoad = 3.0;
    router.migrationDrain = 20000;
    router.migrationCooldown = 60000;
    return router;
}

TEST(Fleet, HotspotSurgeTriggersMigrationWithoutDrops)
{
    // Heavy enough that the 6x surge saturates t1's home shard (the
    // detector needs a real queue), light enough that migration keeps
    // every request inside its deadline.
    std::vector<workload::RequestSpec> specs =
        makeTraffic(surgeKnobs(4, 1, 8.0), 4000, 41);
    ShardRouter fleet(sim::SystemConfig{}, makeServe({4, 2, 2, 1}),
                      rebalancingRouter());
    FleetReport report = fleet.run(specs, ChaosSchedule{});

    EXPECT_EQ(report.served + report.shed, report.offered);
    EXPECT_GE(report.migrations, 1u);
    EXPECT_EQ(report.goldenMismatch, 0u);
    EXPECT_GE(report.availability, 0.99);
}

TEST(Fleet, QuietFleetNeverMigrates)
{
    // Balanced offered load far below the hot-spot floor: the detector
    // must stay quiet (hysteresis against flapping).
    std::vector<workload::RequestSpec> specs =
        makeTraffic(std::vector<TenantKnobs>(4), 600, 43);
    ShardRouter fleet(sim::SystemConfig{}, makeServe({4, 2, 2, 1}),
                      rebalancingRouter());
    FleetReport report = fleet.run(specs, ChaosSchedule{});
    EXPECT_EQ(report.migrations, 0u);
    EXPECT_EQ(report.served + report.shed, report.offered);
}

TEST(Fleet, MigrationSurvivesSourceShardCrash)
{
    // Crash the hot tenant's home shard in the middle of the surge —
    // right where the migration handoff lives. Every request must
    // still be accounted and verified; nothing drops mid-handoff.
    std::vector<workload::RequestSpec> specs =
        makeTraffic(surgeKnobs(4, 1, 8.0), 4000, 47);
    auto once = [&]() {
        ShardRouter fleet(sim::SystemConfig{}, makeServe({4, 2, 2, 1}),
                          rebalancingRouter());
        unsigned home = fleet.failoverOrder(1)[0];
        ChaosSchedule chaos;
        ChaosEvent ev;
        ev.kind = ChaosKind::Crash;
        ev.shard = home;
        ev.start = 50000;
        ev.duration = 60000;
        chaos.events.push_back(ev);
        return fleet.run(specs, chaos);
    };
    FleetReport report = once();
    EXPECT_EQ(report.served + report.shed, report.offered);
    EXPECT_EQ(report.goldenMismatch, 0u);
    EXPECT_GE(report.availability, 0.95);

    FleetReport again = once();
    EXPECT_EQ(report.toJson().dump(), again.toJson().dump());
}

TEST(Fleet, GlobalBackpressureShedsLowestQosFirst)
{
    // A tight fleet-wide budget under a hot surge: the weight-1 tenant
    // pays (evicted or refused at the door), the weight-4 tenant rides
    // through untouched even though the overload is not "its" shard.
    std::vector<workload::RequestSpec> specs =
        makeTraffic(surgeKnobs(4, 1, 8.0), 3000, 53);
    RouterParams router = makeRouter();
    router.globalQueueCap = 32;
    ShardRouter fleet(sim::SystemConfig{}, makeServe({4, 2, 2, 1}),
                      router);
    FleetReport report = fleet.run(specs, ChaosSchedule{});

    EXPECT_EQ(report.served + report.shed, report.offered);
    EXPECT_GT(report.globalEvictions + report.globalSheds, 0u);
    EXPECT_EQ(report.tenants[0].shed, 0u);
    EXPECT_GT(report.tenants[3].shed, 0u);
    EXPECT_NE(report.rejections.dump().find("global_queue_full"),
              std::string::npos);
}

TEST(Fleet, GlobalBackpressureOffByDefault)
{
    // Same overload without a cap: no global evictions, no global
    // sheds, and the run replays byte-identically (feature gating is
    // part of the §8 stream contract).
    std::vector<TenantKnobs> knobs = surgeKnobs(4, 1);
    for (TenantKnobs &k : knobs)
        k.rate = 1.0;
    std::vector<workload::RequestSpec> specs = makeTraffic(knobs, 800, 59);
    auto once = [&]() {
        ShardRouter fleet(sim::SystemConfig{}, makeServe({4, 2, 2, 1}),
                          makeRouter());
        return fleet.run(specs, ChaosSchedule{});
    };
    FleetReport report = once();
    EXPECT_EQ(report.globalEvictions, 0u);
    EXPECT_EQ(report.globalSheds, 0u);
    EXPECT_EQ(report.served + report.shed, report.offered);
    EXPECT_EQ(report.toJson().dump(), once().toJson().dump());
}

TEST(Fleet, PhaseAvailabilityPartitionsTheRun)
{
    // Phase windows partition offered/served/shed exactly; the phase
    // sums must reproduce the fleet totals.
    std::vector<workload::RequestSpec> specs =
        makeTraffic(surgeKnobs(3, 1), 800, 61);
    RouterParams router = rebalancingRouter();
    router.phaseBoundaries = {40000, 260000};
    ShardRouter fleet(sim::SystemConfig{}, makeServe({4, 2, 1}), router);
    FleetReport report = fleet.run(specs, ChaosSchedule{});

    ASSERT_EQ(report.phases.size(), 3u);
    std::uint64_t offered = 0, served = 0, shed = 0;
    for (const FleetReport::PhaseSummary &p : report.phases) {
        EXPECT_EQ(p.served + p.shed, p.offered);
        offered += p.offered;
        served += p.served;
        shed += p.shed;
    }
    EXPECT_EQ(offered, report.offered);
    EXPECT_EQ(served, report.served);
    EXPECT_EQ(shed, report.shed);
    // The surge lives in the middle window.
    EXPECT_GT(report.phases[1].offered, report.phases[0].offered);
}

} // namespace
} // namespace ccache::serve
