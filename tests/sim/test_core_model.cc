/**
 * @file
 * Unit tests for the analytical core cost model.
 */

#include <gtest/gtest.h>

#include "cache/cache.hh"
#include "sim/core_model.hh"

namespace ccache::sim {
namespace {

using M = CoreCostModel;

TEST(CoreCostModel, IssueBoundKernel)
{
    CoreCostModel m;
    m.addInstrs(100 * M::kIssueWidth);
    EXPECT_EQ(m.cycles(), 100u);
    EXPECT_EQ(m.instructions(), 100u * M::kIssueWidth);
}

TEST(CoreCostModel, HitStreamBoundByMemIssueWidth)
{
    CoreCostModel m;
    // Accesses at the L1 latency are pipelined hits.
    for (unsigned i = 0; i < 100 * M::kMemIssueWidth; ++i)
        m.addMemAccess(cache::accessLatency(CacheLevel::L1));
    EXPECT_EQ(m.cycles(), 100u);
}

TEST(CoreCostModel, MissesOverlapUpToMshrs)
{
    CoreCostModel m;
    for (unsigned i = 0; i < 4 * M::kMshrs; ++i)
        m.addMemAccess(100);
    // 4 x kMshrs misses of 100 cycles, kMshrs deep -> 400 cycles.
    EXPECT_EQ(m.cycles(), 400u);
}

TEST(CoreCostModel, SingleMissIsNotOverOverlapped)
{
    CoreCostModel m;
    m.addMemAccess(120);
    // One miss cannot take less than its own latency.
    EXPECT_EQ(m.cycles(), 120u);
}

TEST(CoreCostModel, DependentAccessesSerialize)
{
    CoreCostModel m;
    for (int i = 0; i < 10; ++i)
        m.addDependentMemAccess(50);
    // A dependent chain gets no MLP at all.
    EXPECT_EQ(m.cycles(), 500u);
}

TEST(CoreCostModel, BranchMispredictionsAddSerialLatency)
{
    CoreCostModel m;
    m.addBranches(100, 0.5);
    // 50 mispredictions, each a pipeline refill.
    EXPECT_EQ(m.cycles(), 50 * M::kBranchMispredictPenalty);
    m.reset();
    m.addBranches(100, 0.0);
    EXPECT_LT(m.cycles(), 100u);
}

TEST(CoreCostModel, MaxOfIssueAndMemoryBound)
{
    CoreCostModel m;
    m.addInstrs(1000 * M::kIssueWidth);  // 1000 cycles issue-bound
    m.addMemAccess(100);                 // small memory component
    EXPECT_GE(m.cycles(), 1000u);
    m.reset();
    EXPECT_EQ(m.cycles(), 1u);
}

} // namespace
} // namespace ccache::sim
