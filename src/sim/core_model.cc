#include "sim/core_model.hh"

#include <algorithm>

#include "cache/cache.hh"

namespace ccache::sim {

void
CoreCostModel::addMemAccess(Cycles lat)
{
    ++memOps_;
    if (lat <= cache::accessLatency(CacheLevel::L1)) {
        ++hitOps_;
    } else {
        missLatencySum_ += lat;
        maxMissLatency_ = std::max(maxMissLatency_, lat);
    }
}

void
CoreCostModel::addDependentMemAccess(Cycles lat)
{
    ++memOps_;
    serialLatency_ += lat;
}

void
CoreCostModel::addBranches(std::uint64_t n, double rate)
{
    instrs_ += n;
    serialLatency_ += static_cast<Cycles>(
        static_cast<double>(n) * rate *
        static_cast<double>(kBranchMispredictPenalty));
}

Cycles
CoreCostModel::cycles() const
{
    Cycles issue_bound = (instrs_ + memOps_ + kIssueWidth - 1) / kIssueWidth;
    Cycles hit_time = hitOps_ / kMemIssueWidth;
    Cycles miss_time = std::max(maxMissLatency_, missLatencySum_ / kMshrs);
    Cycles mem_bound = hit_time + miss_time + serialLatency_;
    return std::max<Cycles>(1, std::max(issue_bound, mem_bound));
}

void
CoreCostModel::reset()
{
    instrs_ = 0;
    memOps_ = 0;
    hitOps_ = 0;
    missLatencySum_ = 0;
    maxMissLatency_ = 0;
    serialLatency_ = 0;
}

} // namespace ccache::sim
