/**
 * @file
 * Serving-layer scheduler sweep (DESIGN.md §11): offered load x tenant
 * count x scheduling policy, on synthetic multi-tenant Poisson traffic.
 *
 * Two claims are gated here (bench::finish ok flag):
 *
 *  1. Batching pays: at saturating load the Batch policy's throughput
 *     is at least 2x the FifoSerial serial-issue baseline — the wave
 *     coalescing recovers the paper's §IV-E sub-array concurrency.
 *  2. QoS holds: with an adversarial background tenant flooding the
 *     queue, the high-priority tenant's p99 queueing latency stays
 *     bounded (DRR weights + pending caps + starvation guard).
 *
 * Every sweep point is an independent simulated-time run seeded from
 * its key, so the result file is byte-identical at any thread count
 * and whether ccbench runs it alone or in the full catalog (§8).
 */

#include <string>
#include <vector>

#include "bench_util.hh"
#include "serve/server.hh"
#include "sim/system.hh"
#include "workload/traffic_gen.hh"

namespace {

using namespace ccache;

struct PointOutcome
{
    std::string key;
    serve::ServeReport report;
};

/** Tenant traffic mix: tenant 0 is the small-request interactive
 *  tenant; the rest are heavier background tenants with some
 *  scattered and multi-chunk (cmp > 512 B) requests. */
workload::TrafficParams
makeTraffic(unsigned tenants, double load_rpkc, std::size_t requests,
            std::uint64_t seed)
{
    workload::TrafficParams params;
    params.totalRequests = requests;
    params.seed = seed;
    for (unsigned i = 0; i < tenants; ++i) {
        workload::TenantTraffic t;
        t.name = "t" + std::to_string(i);
        if (i == 0) {
            t.requestsPerKilocycle = 0.2 * load_rpkc;
            t.minBytes = 256;
            t.maxBytes = 1024;
        } else {
            t.requestsPerKilocycle = 0.8 * load_rpkc / (tenants - 1);
            t.minBytes = 256;
            t.maxBytes = 1024;
            t.weightCmp = 0.5;        // sizes > 512 B chunk (multi-slot)
            t.scatterFraction = 0.05; // exercises the near-place fallback
        }
        params.tenants.push_back(std::move(t));
    }
    if (tenants == 1)
        params.tenants[0].requestsPerKilocycle = load_rpkc;
    return params;
}

std::vector<serve::TenantQos>
makeQos(unsigned tenants)
{
    std::vector<serve::TenantQos> qos;
    for (unsigned i = 0; i < tenants; ++i) {
        serve::TenantQos t;
        t.name = "t" + std::to_string(i);
        t.weight = i == 0 ? 4 : 1;
        t.maxPending = i == 0 ? 64 : 48;
        qos.push_back(std::move(t));
    }
    return qos;
}

serve::ServeReport
runPoint(unsigned tenants, double load_rpkc, serve::ServePolicy policy,
         std::size_t requests, std::uint64_t seed)
{
    sim::System sys;
    serve::ServerParams params;
    params.sched.policy = policy;
    params.allocGroups = 256;
    params.sched.waveSize = 32;
    params.sched.perTenantWaveCap = 16;
    params.tenants = makeQos(tenants);
    serve::CcServer server(sys, params);
    return server.run(
        generateTraffic(makeTraffic(tenants, load_rpkc, requests, seed)));
}

} // namespace

int
main(int argc, char **argv)
{
    bench::maybeDescribe(argc, argv,
                         "Multi-tenant DRR batch scheduler vs FIFO at saturation");
    bench::header("Serving-layer scheduler: load x tenants x policy");
    bench::note("open-loop Poisson traffic; throughput in requests per "
                "million cycles (rpMc)");

    const unsigned kTenantCounts[] = {2, 4};
    const double kLoads[] = {1.0, 4.0, 64.0};   // requests / kilocycle
    const serve::ServePolicy kPolicies[] = {serve::ServePolicy::FifoSerial,
                                            serve::ServePolicy::Batch};
    constexpr std::size_t kRequests = 1200;

    bench::ResultsWriter results("serve_scheduler");
    bench::SweepRunner sweep(&results);

    std::vector<PointOutcome> grid;
    for (unsigned tenants : kTenantCounts)
        for (double load : kLoads)
            for (serve::ServePolicy policy : kPolicies)
                grid.push_back(
                    {"t" + std::to_string(tenants) + ".load" +
                         std::to_string(static_cast<int>(load)) + "." +
                         serve::toString(policy),
                     {}});

    std::size_t g = 0;
    for (unsigned tenants : kTenantCounts) {
        for (double load : kLoads) {
            for (serve::ServePolicy policy : kPolicies) {
                PointOutcome &slot = grid[g++];
                sweep.add(slot.key, [&slot, tenants, load,
                                     policy](bench::SweepContext &ctx) {
                    slot.report = runPoint(tenants, load, policy,
                                           kRequests, ctx.seed());
                    const serve::ServeReport &r = slot.report;
                    ctx.config(slot.key + ".tenants", tenants);
                    ctx.config(slot.key + ".load_rpkc", load);
                    ctx.metric(slot.key + ".throughput_rpmc",
                               r.throughputRpmc);
                    ctx.metric(slot.key + ".served",
                               static_cast<double>(r.served));
                    ctx.metric(slot.key + ".rejected",
                               static_cast<double>(r.rejected));
                    ctx.metric(slot.key + ".hi.p99_queue_cycles",
                               static_cast<double>(
                                   r.tenants[0].p99QueueCycles));
                });
            }
        }
    }

    // Adversarial QoS point: a low-rate high-priority tenant against a
    // background tenant offering ~10x the service capacity.
    PointOutcome qos{"qos.adversarial", {}};
    sweep.add(qos.key, [&qos](bench::SweepContext &ctx) {
        workload::TrafficParams traffic;
        traffic.totalRequests = 600;
        traffic.seed = ctx.seed();
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
        serve::ServerParams params;
        params.tenants = {serve::TenantQos{"hi", 8, 64},
                          serve::TenantQos{"bg", 1, 32}};
        serve::CcServer server(sys, params);
        qos.report = server.run(generateTraffic(traffic));

        const serve::ServeReport &r = qos.report;
        ctx.metric("qos.hi.p99_queue_cycles",
                   static_cast<double>(r.tenants[0].p99QueueCycles));
        ctx.metric("qos.hi.p999_queue_cycles",
                   static_cast<double>(r.tenants[0].p999QueueCycles));
        ctx.metric("qos.bg.p99_queue_cycles",
                   static_cast<double>(r.tenants[1].p99QueueCycles));
        ctx.metric("qos.rejected", static_cast<double>(r.rejected));
        ctx.metric("qos.throughput_rpmc", r.throughputRpmc);
        ctx.statsJson("qos.adversarial", sys.stats().dumpJson());
    });

    sweep.run();

    // Tables + claim gates (after the barrier; pure readback).
    bench::rule();
    std::printf("%-24s %12s %10s %10s %16s\n", "point", "thr (rpMc)",
                "served", "rejected", "hi p99 queue");
    bench::rule();
    bool ok = true;
    for (std::size_t i = 0; i < grid.size(); i += 2) {
        const serve::ServeReport &fifo = grid[i].report;
        const serve::ServeReport &batch = grid[i + 1].report;
        for (const PointOutcome *p : {&grid[i], &grid[i + 1]})
            std::printf("%-24s %12.2f %10llu %10llu %16llu\n",
                        p->key.c_str(), p->report.throughputRpmc,
                        static_cast<unsigned long long>(p->report.served),
                        static_cast<unsigned long long>(p->report.rejected),
                        static_cast<unsigned long long>(
                            p->report.tenants[0].p99QueueCycles));
        // Claim 1 at the saturating load only (load16 points).
        if (grid[i].key.find(".load64.") != std::string::npos) {
            double speedup = fifo.throughputRpmc > 0.0
                                 ? batch.throughputRpmc / fifo.throughputRpmc
                                 : 0.0;
            std::printf("%-24s %12.2fx\n",
                        (grid[i].key.substr(0, grid[i].key.find(".load")) +
                         ".batch_speedup")
                            .c_str(),
                        speedup);
            if (speedup < 2.0) {
                std::fprintf(stderr,
                             "FAIL: batch speedup %.2fx < 2x at "
                             "saturation (%s)\n",
                             speedup, grid[i].key.c_str());
                ok = false;
            }
        }
    }

    bench::rule();
    std::printf("qos.adversarial: hi p99 queue %llu cycles, bg p99 queue "
                "%llu cycles, %llu rejected\n",
                static_cast<unsigned long long>(
                    qos.report.tenants[0].p99QueueCycles),
                static_cast<unsigned long long>(
                    qos.report.tenants[1].p99QueueCycles),
                static_cast<unsigned long long>(qos.report.rejected));
    // Claim 2: the hi tenant's tail queueing stays below the starvation
    // guard's age bound even while the bg tenant saturates the queue.
    if (qos.report.tenants[0].p99QueueCycles > serve::kStarvationAgeCycles) {
        std::fprintf(stderr,
                     "FAIL: hi-tenant p99 queueing %llu exceeds the "
                     "starvation bound\n",
                     static_cast<unsigned long long>(
                         qos.report.tenants[0].p99QueueCycles));
        ok = false;
    }
    if (qos.report.rejected == 0) {
        std::fprintf(stderr, "FAIL: adversarial load shed nothing — "
                             "admission control untested\n");
        ok = false;
    }

    return bench::finish(results, sweep, ok);
}
