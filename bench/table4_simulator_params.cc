/**
 * @file
 * Reproduces Table IV: the simulated machine's parameters, printed from
 * the default configuration and the timing constants the simulator
 * charges, so documentation can never drift from the code.
 */

#include "bench_util.hh"
#include "sim/system.hh"

using namespace ccache;
using namespace ccache::sim;

int
main(int argc, char **argv)
{
    bench::maybeDescribe(argc, argv,
                         "Table IV: the simulated machine, from live config");
    bench::header("Table IV: simulator parameters (live configuration)");
    using cache::accessLatency;
    using cc::inPlaceLatency;
    using cc::nearPlaceLatency;

    SystemConfig cfg;
    const auto &h = cfg.hierarchy;

    bench::ResultsWriter results("table4_simulator_params");
    results.config("cores", cache::Hierarchy::kCores);
    results.config("core_freq_ghz", kCoreFreqHz / 1e9);

    // A single sweep point: this bench only snapshots the live default
    // configuration, but it rides the same engine as every other bench.
    bench::SweepRunner sweep(&results);
    sweep.add("defaults", [&h](bench::SweepContext &ctx) {
        ctx.metric("l1.size_kb",
                   static_cast<double>(h.l1.geometry.sizeBytes) / 1024);
        ctx.metric("l2.size_kb",
                   static_cast<double>(h.l2.geometry.sizeBytes) / 1024);
        ctx.metric("l3.slice_size_mb",
                   static_cast<double>(h.l3.geometry.sizeBytes) /
                       (1024 * 1024));
        ctx.metric("l1.access_cycles",
                   static_cast<double>(accessLatency(CacheLevel::L1)));
        ctx.metric("l2.access_cycles",
                   static_cast<double>(accessLatency(CacheLevel::L2)));
        ctx.metric("l3.access_cycles",
                   static_cast<double>(accessLatency(CacheLevel::L3)));
        ctx.metric("ring.hop_cycles",
                   static_cast<double>(noc::Ring::kHopLatency));
        ctx.metric("memory.access_cycles",
                   static_cast<double>(mem::Memory::kAccessLatency));
    });
    sweep.run();

    std::printf("Configuration   %u-core CMP\n", cache::Hierarchy::kCores);
    std::printf("Processor       %.2f GHz out-of-order core, issue %u, "
                "%u-deep MLP\n",
                kCoreFreqHz / 1e9, CoreCostModel::kIssueWidth,
                CoreCostModel::kMshrs);

    auto cache_row = [](const char *name,
                        const geometry::CacheGeometryParams &g,
                        Cycles lat, const char *extra) {
        std::printf("%-15s %zu KB, %zu-way, %llu cycle access%s\n", name,
                    g.sizeBytes / 1024, g.ways,
                    static_cast<unsigned long long>(lat), extra);
    };
    cache_row("L1-D Cache", h.l1.geometry, accessLatency(CacheLevel::L1),
              "");
    cache_row("L2 Cache", h.l2.geometry, accessLatency(CacheLevel::L2),
              ", inclusive, private");
    std::printf("L3 Cache        inclusive, shared, %u NUCA slices, "
                "%zu MB each, %zu-way, %llu cycle + %llu queuing\n",
                noc::Ring::kNodes, h.l3.geometry.sizeBytes / (1024 * 1024),
                h.l3.geometry.ways,
                static_cast<unsigned long long>(
                    accessLatency(CacheLevel::L3)),
                static_cast<unsigned long long>(
                    cache::Hierarchy::kL3QueueDelay));
    std::printf("Interconnect    ring, %llu cycle hop latency, %u-bit "
                "link width\n",
                static_cast<unsigned long long>(noc::Ring::kHopLatency),
                noc::Ring::kLinkBytes * 8);
    std::printf("Coherence       directory based, MESI\n");
    std::printf("Memory          %llu cycle latency\n",
                static_cast<unsigned long long>(mem::Memory::kAccessLatency));

    bench::rule();
    std::printf("Compute Cache   in-place op %llu/%llu/%llu cycles "
                "(L1/L2/L3), near-place %llu/%llu/%llu\n",
                static_cast<unsigned long long>(
                    inPlaceLatency(CacheLevel::L1)),
                static_cast<unsigned long long>(
                    inPlaceLatency(CacheLevel::L2)),
                static_cast<unsigned long long>(
                    inPlaceLatency(CacheLevel::L3)),
                static_cast<unsigned long long>(
                    nearPlaceLatency(CacheLevel::L1)),
                static_cast<unsigned long long>(
                    nearPlaceLatency(CacheLevel::L2)),
                static_cast<unsigned long long>(
                    nearPlaceLatency(CacheLevel::L3)));
    std::printf("                power cap %u sub-arrays\n",
                cfg.cc.maxActiveSubarrays);

    bench::rule();
    bench::note("Paper Table IV: 2.66 GHz OoO, 32 KB 8-way L1-D (5 cyc),");
    bench::note("256 KB 8-way private L2 (11 cyc), 8 x 2 MB 16-way NUCA "
                "L3 (11 cyc");
    bench::note("+ queuing), 3-cycle-hop 256-bit ring, directory MESI, "
                "120-cycle memory.");
    return bench::finish(results, sweep);
}
