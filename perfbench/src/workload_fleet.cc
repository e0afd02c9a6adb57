/**
 * @file
 * fleet_hotspot: serve_fleet's hotspot_migrate shape. The program's own
 * traffic generator (workload/) builds 7,200 open-loop Poisson requests
 * from 4 tenants (QoS weights 4/2/2/1, Zipf(0.99) keys over 2M ranks, a
 * 3x surge on t1), and a 4-shard serve::ShardRouter with migration,
 * hedging and golden verification on replays them with no chaos.
 *
 * Why: it is the only workload through workload/ and the serve/ event
 * loop. Arrivals are open-loop in simulated time, so a slower host never
 * changes the offered load.
 */

#include "bench.hh"
#include "serve/shard_router.hh"
#include "workload/traffic_gen.hh"
#include "workload/zipf.hh"

namespace perfbench {
namespace {

using namespace ccache;

constexpr unsigned kShards = 4;
constexpr unsigned kTenants = 4;
constexpr std::size_t kRequests = 7200;
constexpr double kLoadRpkc = 24.0;
constexpr std::size_t kKeySpace = 2'000'000;
constexpr double kKeyExponent = 0.99;
constexpr Cycles kSurgeStart = 30000;
constexpr Cycles kSurgeEnd = 130000;

class FleetHotspot : public Workload
{
  public:
    explicit FleetHotspot(std::uint64_t seed)
    {
        traffic_.totalRequests = kRequests;
        traffic_.seed = subSeed(seed, "fleet.traffic");
        traffic_.zipfKeys = kKeySpace;
        traffic_.keyExponent = kKeyExponent;
        for (unsigned i = 0; i < kTenants; ++i) {
            workload::TenantTraffic t;
            t.name = "t" + std::to_string(i);
            if (i == 0) {
                t.requestsPerKilocycle = 0.25 * kLoadRpkc;
                t.minBytes = 256;
                t.maxBytes = 1024;
            } else {
                t.requestsPerKilocycle = 0.75 * kLoadRpkc / (kTenants - 1);
                t.minBytes = 1024;
                t.maxBytes = 8192;
                t.weightCmp = 0.5;
            }
            if (i == 1) {
                t.phases.push_back({kSurgeStart, 3.0});
                t.phases.push_back({kSurgeEnd, 1.0});
            }
            traffic_.tenants.push_back(std::move(t));
        }

        const unsigned weights[kTenants] = {4, 2, 2, 1};
        serve_.tenants.clear();
        for (unsigned i = 0; i < kTenants; ++i) {
            serve::TenantQos q;
            q.name = "t" + std::to_string(i);
            q.weight = weights[i];
            serve_.tenants.push_back(std::move(q));
        }

        std::uint64_t routerSeed = subSeed(seed, "fleet.router");
        router_.shards = kShards;
        router_.admissionDeadline = 60000;
        router_.shardTimeout = 20000;
        router_.retry.seed = routerSeed;
        router_.hedgeAge = 2500;
        router_.verifyGolden = true;
        router_.patternSeed = routerSeed;
        router_.phaseBoundaries = {kSurgeStart, kSurgeEnd};
        router_.rebalancePeriod = 5000;
        router_.hotspotRatio = 3.0;
        router_.hotspotMinLoad = 12.0;
        router_.migrationDrain = 20000;
        router_.migrationCooldown = 60000;
    }

    Iteration iterate(Tracer &tracer, bool first) override
    {
        Iteration it;

        Clock::time_point t0 = Clock::now();
        std::vector<workload::RequestSpec> specs;
        {
            auto span = tracer.span("workload.generate");
            specs = workload::generateTraffic(traffic_);
        }
        std::unique_ptr<serve::ShardRouter> fleet;
        {
            auto span = tracer.span("serve.router_build");
            fleet = std::make_unique<serve::ShardRouter>(sim::SystemConfig{},
                                                         serve_, router_);
        }
        it.setupS = secondsSince(t0);

        Clock::time_point t1 = Clock::now();
        serve::FleetReport report;
        {
            auto span = tracer.span("serve.run");
            report = fleet->run(specs, serve::ChaosSchedule{});
        }
        it.runS = secondsSince(t1);

        it.digest = report.toJson().dump();
        it.digest += '\n';
        for (unsigned s = 0; s < fleet->shardCount(); ++s)
            it.runS += dumpStats(tracer, fleet->shardSystem(s), it.digest);
        Clock::time_point t2 = Clock::now();
        Json fleetStats;
        {
            auto span = tracer.span("stats.dump");
            fleetStats = fleet->fleetStats().dumpJson();
        }
        it.runS += secondsSince(t2);
        it.digest += fleetStats.dump();

        // Checks: every commit golden-verified, and every offered
        // request either served or shed.
        it.attempted = report.offered;
        it.failed = report.goldenMismatch;
        if (report.served + report.shed != report.offered) {
            std::uint64_t accounted = report.served + report.shed;
            it.failed += accounted > report.offered
                ? accounted - report.offered
                : report.offered - accounted;
        }
        if (it.failed)
            std::fprintf(stderr,
                         "fleet_hotspot: %llu golden mismatches, offered "
                         "%llu served %llu shed %llu\n",
                         static_cast<unsigned long long>(
                             report.goldenMismatch),
                         static_cast<unsigned long long>(report.offered),
                         static_cast<unsigned long long>(report.served),
                         static_cast<unsigned long long>(report.shed));

        if (first || tracer.enabled()) {
            for (unsigned s = 0; s < fleet->shardCount(); ++s) {
                it.events += simulatedEvents(fleet->shardSystem(s));
                addLayerCounters(fleet->shardSystem(s), it.values);
            }
            finishLayerCounters(it.values);
            double waves = 0.0;
            for (const auto &shard : report.shards)
                waves += static_cast<double>(shard.waves);
            it.values["serve.waves"] = waves;
            it.values["serve.retries"] = static_cast<double>(report.retries);
            it.values["serve.hedge_waste_ratio"] = report.hedgesLaunched
                ? static_cast<double>(report.hedgeWasted) /
                    static_cast<double>(report.hedgesLaunched)
                : 0.0;
        }
        if (tracer.enabled()) {
            // The alias-table build on its own, outside set-up and the
            // spans: the share of workload.generate that an optimisation
            // of ZipfSampler can save.
            Clock::time_point t3 = Clock::now();
            workload::ZipfSampler zipf(kKeySpace, kKeyExponent);
            it.values["workload.zipf_build_s"] = secondsSince(t3);
        }
        return it;
    }

  private:
    workload::TrafficParams traffic_;
    serve::ServerParams serve_;
    serve::RouterParams router_;
};

} // namespace

std::unique_ptr<Workload>
makeFleetHotspot(std::uint64_t seed)
{
    return std::make_unique<FleetHotspot>(seed);
}

} // namespace perfbench
