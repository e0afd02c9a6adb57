/**
 * @file
 * The run harness's one fan-out function (DESIGN.md §8.1).
 *
 * Sweep points, sampled-trace representatives and ccbench's catalog are
 * batches of independent tasks that each run once. parallelFor hands
 * their indices out from one shared atomic cursor: a thread that
 * finishes early takes the next index, so an uneven batch balances
 * itself without per-thread queues.
 *
 * Determinism contract (DESIGN.md §8): parallelFor owns no simulation
 * state. Each task writes only its own slot, so which thread runs which
 * index cannot influence results, and a failure surfaces as the
 * exception of the lowest failing index whatever the schedule.
 */

#ifndef CCACHE_COMMON_PARALLEL_FOR_HH
#define CCACHE_COMMON_PARALLEL_FOR_HH

#include <cstddef>
#include <functional>

namespace ccache {

/**
 * Run @p body(i) for every i in [0, n) on min(@p jobs, n) threads, the
 * caller being one of them. With @p jobs <= 1 every index runs on the
 * caller, in index order. Every index runs even when some throw;
 * afterwards the exception of the lowest failing index is rethrown. If
 * a thread cannot be started, the call runs on the threads it has.
 */
void parallelFor(unsigned jobs, std::size_t n,
                 const std::function<void(std::size_t)> &body);

/**
 * $CCACHE_JOBS when it is a whole decimal number >= 1 that fits an
 * unsigned; otherwise the hardware thread count (at least 1). A set but
 * malformed $CCACHE_JOBS prints one warning naming the value.
 */
unsigned defaultJobs();

} // namespace ccache

#endif // CCACHE_COMMON_PARALLEL_FOR_HH
