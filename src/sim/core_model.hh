/**
 * @file
 * Analytical out-of-order core cost model.
 *
 * The paper evaluates on Sniper's interval-style core model; this module
 * reproduces that granularity: a kernel's cycle count is the maximum of
 * its issue-bound time (instructions / issue width) and its memory-bound
 * time (access latencies overlapped up to the MSHR-limited memory-level
 * parallelism), which is exactly the trade-off the Figure 3/7 baselines
 * exercise.
 */

#ifndef CCACHE_SIM_CORE_MODEL_HH
#define CCACHE_SIM_CORE_MODEL_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace ccache::sim {

/** Accumulates one kernel's instruction and memory activity on the
 *  Table IV core (2.66 GHz OoO, 48 LQ / 32 SQ). */
class CoreCostModel
{
  public:
    /** Instructions issued per cycle. */
    static constexpr unsigned kIssueWidth = 4;

    /** Memory ops issued per cycle when hitting in L1. */
    static constexpr unsigned kMemIssueWidth = 2;

    /** Concurrent outstanding misses. The effective MLP of the paper's
     *  Sniper baseline on L3-resident streams is low (the copy
     *  decomposition in Section VI-D implies largely serialized misses);
     *  2 reproduces the reported Base_32 throughput shape. */
    static constexpr unsigned kMshrs = 2;

    /** Loop bookkeeping instructions per vector chunk (index update,
     *  bounds check, branch). */
    static constexpr unsigned kLoopOverheadInstrs = 3;

    /** Pipeline refill cost of one branch misprediction (SandyBridge-
     *  class front end). */
    static constexpr Cycles kBranchMispredictPenalty = 15;

    // cycles() divides by both widths.
    static_assert(kIssueWidth >= 1 && kMemIssueWidth >= 1 && kMshrs >= 1);

    /** Record @p n non-memory instructions. */
    void addInstrs(std::uint64_t n) { instrs_ += n; }

    /** Record one memory access of latency @p lat (from the hierarchy).
     *  Accesses at or under the L1 latency count as pipelined L1 hits. */
    void addMemAccess(Cycles lat);

    /** Record a memory access on a serially-dependent chain (pointer
     *  chasing, binary-search probes): no MLP overlap is possible. */
    void addDependentMemAccess(Cycles lat);

    /** Record @p n data-dependent branches with misprediction
     *  probability @p rate (binary search mispredicts ~50%). */
    void addBranches(std::uint64_t n, double rate);

    std::uint64_t instructions() const { return instrs_ + memOps_; }

    /**
     * Kernel cycles: max of the issue-bound and memory-bound components.
     * Misses overlap up to kMshrs deep; L1 hits stream at
     * kMemIssueWidth per cycle.
     */
    Cycles cycles() const;

    void reset();

  private:
    std::uint64_t instrs_ = 0;
    std::uint64_t memOps_ = 0;
    std::uint64_t hitOps_ = 0;
    Cycles missLatencySum_ = 0;
    Cycles maxMissLatency_ = 0;
    Cycles serialLatency_ = 0;
};

} // namespace ccache::sim

#endif // CCACHE_SIM_CORE_MODEL_HH
