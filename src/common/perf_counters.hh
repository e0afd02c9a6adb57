/**
 * @file
 * Process-wide throughput counters for the perf section of bench result
 * files (DESIGN.md §13).
 *
 * Simulation statistics live in the StatRegistry of each point's own
 * System, so no two sweep points share one. Wall-clock throughput
 * is the opposite kind of number: it is intentionally nondeterministic
 * (it measures this machine, this run) and must aggregate across every
 * sweep point in the process regardless of which thread ran it. One
 * relaxed atomic serves that purpose; bench::ResultsWriter divides it by
 * elapsed wall time to produce the tracked "ops_per_sec" metric.
 */

#ifndef CCACHE_COMMON_PERF_COUNTERS_HH
#define CCACHE_COMMON_PERF_COUNTERS_HH

#include <atomic>
#include <cstdint>

namespace ccache::perf {

/** Total CC block operations executed by every controller in this
 *  process (one count per cache-block-sized op, the paper's unit of
 *  compute). */
inline std::atomic<std::uint64_t> g_ccBlockOps{0};

/** Charge @p n block ops (relaxed: the count is a throughput total,
 *  never synchronizes anything). */
inline void
addCcBlockOps(std::uint64_t n)
{
    g_ccBlockOps.fetch_add(n, std::memory_order_relaxed);
}

/** Current process-wide block-op total. */
inline std::uint64_t
ccBlockOps()
{
    return g_ccBlockOps.load(std::memory_order_relaxed);
}

} // namespace ccache::perf

#endif // CCACHE_COMMON_PERF_COUNTERS_HH
