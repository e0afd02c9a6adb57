/**
 * @file
 * Tests for the fault-tolerant shard router (DESIGN.md §12): ring
 * placement, run-to-run determinism under chaos, crash failover with
 * golden verification, the QoS brownout split, hedging, and request
 * conservation under randomized fault schedules.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "common/logging.hh"
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

std::vector<workload::RequestSpec>
makeTraffic(unsigned tenants, std::size_t requests, std::uint64_t seed,
            std::size_t min_bytes = 256, std::size_t max_bytes = 4096)
{
    workload::TrafficParams traffic;
    traffic.totalRequests = requests;
    traffic.seed = seed;
    for (unsigned i = 0; i < tenants; ++i) {
        workload::TenantTraffic t;
        t.name = "t" + std::to_string(i);
        t.requestsPerKilocycle = 0.5;
        t.minBytes = min_bytes;
        t.maxBytes = max_bytes;
        if (i > 0)
            t.weightCmp = 0.4;
        traffic.tenants.push_back(std::move(t));
    }
    return generateTraffic(traffic);
}

ChaosSchedule
crashOf(unsigned shard, Cycles start, Cycles duration)
{
    ChaosSchedule chaos;
    ChaosEvent ev;
    ev.kind = ChaosKind::Crash;
    ev.shard = shard;
    ev.start = start;
    ev.duration = duration;
    chaos.events.push_back(ev);
    return chaos;
}

TEST(ShardRouter, RingCoversEveryShardPerTenant)
{
    ShardRouter fleet(sim::SystemConfig{}, makeServe({4, 2, 2, 1}),
                      makeRouter());
    for (TenantId t = 0; t < 4; ++t) {
        const std::vector<unsigned> &order = fleet.failoverOrder(t);
        ASSERT_EQ(order.size(), kShards);
        std::vector<bool> seen(kShards, false);
        for (unsigned s : order) {
            ASSERT_LT(s, kShards);
            EXPECT_FALSE(seen[s]) << "shard repeated in failover order";
            seen[s] = true;
        }
    }
}

TEST(ShardRouter, ChaosRunIsDeterministic)
{
    ChaosSchedule chaos;
    ASSERT_TRUE(ChaosSchedule::parse(
        "crash@20000+120000:1;slow@10000+300000:2*8", kShards, &chaos,
        nullptr));
    std::vector<workload::RequestSpec> specs = makeTraffic(3, 500, 99);

    // Everything a run exports: the report, every shard's stats and
    // the fleet stats.
    auto once = [&]() {
        RouterParams router = makeRouter();
        router.hedgeAge = 2000;
        ShardRouter fleet(sim::SystemConfig{}, makeServe({4, 2, 2}),
                          router);
        std::vector<std::string> out = {
            fleet.run(specs, chaos).toJson().dump()};
        for (unsigned s = 0; s < fleet.shardCount(); ++s)
            out.push_back(fleet.shardSystem(s).stats().dumpJson().dump());
        out.push_back(fleet.fleetStats().dumpJson().dump());
        return out;
    };
    std::vector<std::string> a = once();
    EXPECT_EQ(a, once());
    EXPECT_EQ(a.size(), 2 + kShards);
}

TEST(ShardRouter, CrashFailoverKeepsAvailability)
{
    // Kill the interactive tenant's home shard mid-run and recover it;
    // every tenant is reroute-eligible, so the outage must be absorbed.
    ShardRouter fleet(sim::SystemConfig{}, makeServe({4, 2, 2, 2}),
                      makeRouter());
    unsigned home = fleet.failoverOrder(0)[0];
    FleetReport report = fleet.run(makeTraffic(4, 800, 7),
                                   crashOf(home, 20000, 120000));

    EXPECT_EQ(report.served + report.shed, report.offered);
    EXPECT_GE(report.availability, 0.99);
    EXPECT_GT(report.reroutes, 0u);
    EXPECT_GE(report.breakerTrips, 1u);
    EXPECT_GT(report.goldenChecked, 0u);
    EXPECT_EQ(report.goldenMismatch, 0u);
    EXPECT_EQ(report.shards[home].downCycles, 120000u);
    // The crashed shard went dark but recovered: it must have served
    // traffic again after the window (its served count is well above
    // what the first 20k cycles alone could commit).
    EXPECT_GT(report.shards[home].served, 0u);
}

TEST(ShardRouter, BrownoutShedsLowestQosFirst)
{
    // t3 (weight 1, under the brownout floor of 2) homed on the crashed shard
    // must shed; the weight-4 tenant rides the ring and loses nothing.
    ShardRouter fleet(sim::SystemConfig{}, makeServe({4, 2, 2, 1}),
                      makeRouter());
    unsigned home = fleet.failoverOrder(3)[0];
    FleetReport report = fleet.run(makeTraffic(4, 800, 11),
                                   crashOf(home, 20000, 160000));

    EXPECT_EQ(report.served + report.shed, report.offered);
    EXPECT_EQ(report.tenants[0].shed, 0u);
    EXPECT_GT(report.tenants[3].shed, 0u);
    EXPECT_EQ(report.goldenMismatch, 0u);
    // The sheds are structured records with the brownout reasons.
    std::string rej = report.rejections.dump();
    EXPECT_TRUE(rej.find("shard_down") != std::string::npos ||
                rej.find("breaker_open") != std::string::npos)
        << rej;
}

TEST(ShardRouter, HedgingLaunchesAndResolves)
{
    // A tight hedge age fires twins for requests that outlive it; the
    // accounting must balance and the run stays deterministic.
    std::vector<workload::RequestSpec> specs =
        makeTraffic(2, 400, 21, 2048, 16384);
    ChaosSchedule chaos;
    ASSERT_TRUE(ChaosSchedule::parse("slow@5000+400000:1*20", kShards,
                                     &chaos, nullptr));
    auto once = [&]() {
        RouterParams router = makeRouter();
        router.hedgeAge = 200;
        ShardRouter fleet(sim::SystemConfig{}, makeServe({4, 4}), router);
        return fleet.run(specs, chaos);
    };
    FleetReport report = once();
    EXPECT_GT(report.hedgesLaunched, 0u);
    EXPECT_EQ(report.served + report.shed, report.offered);
    EXPECT_EQ(report.goldenMismatch, 0u);
    EXPECT_LE(report.hedgeWins + report.hedgeCancelled +
                  report.hedgeWasted,
              2 * report.hedgesLaunched);

    FleetReport again = once();
    EXPECT_EQ(report.toJson().dump(), again.toJson().dump());
}

TEST(ShardRouter, RandomChaosConservesEveryRequest)
{
    for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
        ChaosSchedule chaos =
            ChaosSchedule::random(seed, kShards, 400000, 6);
        RouterParams router = makeRouter();
        router.hedgeAge = 1500;
        ShardRouter fleet(sim::SystemConfig{}, makeServe({4, 2, 1}),
                          router);
        FleetReport report = fleet.run(makeTraffic(3, 600, seed), chaos);
        EXPECT_EQ(report.served + report.shed, report.offered)
            << "seed " << seed;
        EXPECT_EQ(report.goldenMismatch, 0u) << "seed " << seed;
    }
}

TEST(ShardRouter, HeapExhaustionShedsAfterRetries)
{
    // A heap too small for any request degrades into structured sheds
    // (no_capacity placements -> retries -> retries_exhausted), never
    // a crash or a hang.
    ServerParams serve = makeServe({4});
    serve.heapBytes = 4096;
    RouterParams router = makeRouter();
    router.verifyGolden = false;
    ShardRouter fleet(sim::SystemConfig{}, serve, router);
    FleetReport report =
        fleet.run(makeTraffic(1, 40, 5, 16384, 16384), ChaosSchedule{});

    EXPECT_EQ(report.served, 0u);
    EXPECT_EQ(report.shed, report.offered);
    EXPECT_GT(report.retries, 0u);
    EXPECT_NE(report.rejections.dump().find("retries_exhausted"),
              std::string::npos);
}

TEST(ShardRouter, HalfOpenProbeRacingCrashNeverRecloses)
{
    // First crash trips the breaker; it half-opens mid-outage and
    // probe traffic resumes at recovery. A second crash then lands at
    // varying offsets around the probe window — including inside a
    // probe wave's execution. Chaos boundaries are processed before
    // wave completions at the same cycle, so a probe wave killed by
    // the crash must count as a failure: the breaker may never end the
    // run Closed while the second crash extends past the last commit.
    std::vector<workload::RequestSpec> specs = makeTraffic(2, 500, 77);
    std::uint64_t maxTrips = 0;
    for (Cycles offset = 0; offset <= 4000; offset += 500) {
        RouterParams router = makeRouter();
        ShardRouter fleet(sim::SystemConfig{}, makeServe({4, 4}), router);
        unsigned home = fleet.failoverOrder(0)[0];
        ChaosSchedule chaos;
        ChaosEvent first;
        first.kind = ChaosKind::Crash;
        first.shard = home;
        first.start = 30000;
        first.duration = 40000;   // > breaker cooloff: half-open mid-crash
        ChaosEvent second = first;
        second.start = 70000 + offset;   // around recovery + probes
        second.duration = 100'000'000;   // dark through end of run
        chaos.events = {first, second};
        FleetReport report = fleet.run(specs, chaos);

        EXPECT_EQ(report.served + report.shed, report.offered)
            << "offset " << offset;
        EXPECT_EQ(report.goldenMismatch, 0u) << "offset " << offset;
        const CircuitBreaker &breaker = fleet.shardBreaker(home);
        // At tiny offsets the heal window is too short for a probe to
        // complete, so the breaker may stay tripped-once; it must
        // never have recovered to Closed regardless.
        EXPECT_GE(breaker.trips(), 1u) << "offset " << offset;
        maxTrips = std::max(maxTrips, breaker.trips());
        EXPECT_NE(breaker.state(report.elapsed),
                  CircuitBreaker::State::Closed)
            << "offset " << offset;
    }
    // Some offset in the sweep leaves room for the probes to re-close
    // the breaker before the second crash re-trips it: the
    // close -> re-trip path must have been exercised.
    EXPECT_GE(maxTrips, 2u);
}

TEST(ShardRouter, RetriesAndHedgesComposeWithFanoutLegs)
{
    // Fan-out legs run the full reliability pipeline: under a slow
    // storm they time out, retry across shards and hedge like any
    // hi-QoS request, while the fan-in barrier keeps parent accounting
    // exact (each parent counted once, never double-served).
    workload::TrafficParams traffic;
    traffic.totalRequests = 400;
    traffic.seed = 83;
    workload::TenantTraffic t;
    t.name = "t0";
    t.requestsPerKilocycle = 0.5;
    t.minBytes = 4096;
    t.maxBytes = 32768;
    t.fanoutFraction = 0.6;
    t.fanoutLegs = 3;
    traffic.tenants = {t};
    std::vector<workload::RequestSpec> specs = generateTraffic(traffic);

    ChaosSchedule chaos;
    ASSERT_TRUE(ChaosSchedule::parse("slow@5000+500000:0*20;"
                                     "slow@5000+500000:1*20;"
                                     "slow@5000+500000:2*20;"
                                     "slow@5000+500000:3*20",
                                     kShards, &chaos, nullptr));
    auto once = [&]() {
        RouterParams router = makeRouter();
        router.shardTimeout = 800;
        router.hedgeAge = 400;
        ShardRouter fleet(sim::SystemConfig{}, makeServe({4}), router);
        return fleet.run(specs, chaos);
    };
    FleetReport report = once();
    EXPECT_EQ(report.served + report.shed, report.offered);
    EXPECT_GT(report.fanoutParents, 0u);
    EXPECT_GE(report.fanoutLegs, 2 * report.fanoutParents);
    EXPECT_GT(report.retries, 0u);
    EXPECT_GT(report.hedgesLaunched, 0u);
    EXPECT_EQ(report.goldenMismatch, 0u);

    FleetReport again = once();
    EXPECT_EQ(report.toJson().dump(), again.toJson().dump());
}

TEST(ShardRouter, RejectsNonsensicalParams)
{
    using S = ServerParams;
    using R = RouterParams;
    auto build = [](auto &&mutate) {
        S serve = makeServe({4, 1});
        R router;
        router.shards = 1;
        mutate(serve, router);
        ShardRouter fleet(sim::SystemConfig{}, serve, router);
    };
    // ServerParams::validate (CcServer.RejectsNonsensicalParams covers
    // the rest of it).
    EXPECT_THROW(build([](S &s, R &) { s.tenants.clear(); }), FatalError);
    EXPECT_THROW(build([](S &s, R &) { s.tenants[1].name = "t0"; }),
                 FatalError);
    EXPECT_THROW(build([](S &s, R &) { s.sched.waveSize = 0; }),
                 FatalError);
    // The router's own parameters.
    EXPECT_THROW(build([](S &, R &r) { r.shards = 0; }), FatalError);
    EXPECT_THROW(build([](S &, R &r) { r.retry.maxAttempts = 0; }),
                 FatalError);
    EXPECT_THROW(build([](S &, R &r) { r.phaseBoundaries = {200, 100}; }),
                 FatalError);
    for (double bad : {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
                       std::numeric_limits<double>::infinity()}) {
        EXPECT_THROW(build([bad](S &, R &r) {
                         r.rebalancePeriod = 5000;
                         r.hotspotRatio = bad;
                     }),
                     FatalError)
            << bad;
        EXPECT_THROW(build([bad](S &, R &r) {
                         r.rebalancePeriod = 5000;
                         r.hotspotMinLoad = bad;
                     }),
                     FatalError)
            << bad;
        // The detector thresholds are read only while rebalancing.
        EXPECT_NO_THROW(build([bad](S &, R &r) { r.hotspotRatio = bad; }))
            << bad;
    }
    EXPECT_NO_THROW(build([](S &, R &) {}));
}

} // namespace
} // namespace ccache::serve
