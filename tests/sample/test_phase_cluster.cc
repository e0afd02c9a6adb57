/**
 * @file
 * Tests for the deterministic k-means phase clusterer.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "sample/phase_cluster.hh"

namespace ccache::sample {
namespace {

/** A synthetic interval whose normalized() vector is dominated by its
 *  read/write mix — enough to build well-separated clusters. */
IntervalFeatures
interval(std::size_t index, std::uint64_t reads, std::uint64_t writes,
         std::uint64_t ccOps = 0)
{
    IntervalFeatures iv;
    iv.firstRecord = index * 100;
    iv.records = reads + writes + ccOps;
    iv.reads = reads;
    iv.writes = writes;
    iv.ccOps = ccOps;
    iv.ccBytes = ccOps * 1024;
    iv.workingSetPages = 1 + index % 3;
    return iv;
}

/** A/B/C pattern repeated: pure-read, pure-write, CC-heavy. */
std::vector<IntervalFeatures>
threePhaseTrace(std::size_t rounds)
{
    std::vector<IntervalFeatures> ivs;
    for (std::size_t r = 0; r < rounds; ++r) {
        ivs.push_back(interval(ivs.size(), 100, 0));
        ivs.push_back(interval(ivs.size(), 0, 100));
        ivs.push_back(interval(ivs.size(), 0, 0, 100));
    }
    return ivs;
}

TEST(PhaseCluster, SeparatesObviousPhases)
{
    auto ivs = threePhaseTrace(6);
    ClusterParams params;
    params.clusters = 3;
    auto out = clusterIntervals(ivs, params);

    ASSERT_EQ(out.phases.size(), 3u);
    ASSERT_EQ(out.assignment.size(), ivs.size());
    // Each phase owns exactly the 6 intervals of its behaviour, and
    // the A/B/C pattern means assignment repeats with period 3.
    for (const Phase &p : out.phases) {
        EXPECT_EQ(p.intervalCount, 6u);
        EXPECT_NEAR(p.weight, 6.0 / 18.0, 1e-12);
    }
    for (std::size_t i = 0; i < ivs.size(); ++i)
        EXPECT_EQ(out.assignment[i], out.assignment[i % 3]) << i;
    // Phase numbering is stable: phase 0 contains interval 0.
    EXPECT_EQ(out.assignment[0], 0u);
}

TEST(PhaseCluster, WeightsSumToOne)
{
    auto ivs = threePhaseTrace(5);
    ClusterParams params;
    params.clusters = 8;   // more clusters than behaviours
    auto out = clusterIntervals(ivs, params);
    double total = 0.0;
    std::uint64_t count = 0;
    for (const Phase &p : out.phases) {
        total += p.weight;
        count += p.intervalCount;
        EXPECT_LT(p.representative, ivs.size());
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
    EXPECT_EQ(count, ivs.size());
}

TEST(PhaseCluster, DeterministicAcrossRepeatsAndSeedSensitive)
{
    auto ivs = threePhaseTrace(7);
    ClusterParams params;
    auto a = clusterIntervals(ivs, params);
    auto b = clusterIntervals(ivs, params);
    ASSERT_EQ(a.phases.size(), b.phases.size());
    EXPECT_EQ(a.assignment, b.assignment);
    for (std::size_t p = 0; p < a.phases.size(); ++p) {
        EXPECT_EQ(a.phases[p].representative,
                  b.phases[p].representative);
        EXPECT_EQ(a.phases[p].intervalCount, b.phases[p].intervalCount);
    }
    EXPECT_EQ(a.iterations, b.iterations);
}

TEST(PhaseCluster, MoreClustersThanIntervalsClamps)
{
    std::vector<IntervalFeatures> ivs = {interval(0, 10, 0),
                                         interval(1, 0, 10)};
    ClusterParams params;
    params.clusters = 16;
    auto out = clusterIntervals(ivs, params);
    EXPECT_LE(out.phases.size(), 2u);
    EXPECT_GE(out.phases.size(), 1u);
    std::uint64_t count = 0;
    for (const Phase &p : out.phases)
        count += p.intervalCount;
    EXPECT_EQ(count, 2u);
}

TEST(PhaseCluster, SingleClusterRepresentsEverything)
{
    auto ivs = threePhaseTrace(4);
    ClusterParams params;
    params.clusters = 1;
    auto out = clusterIntervals(ivs, params);
    ASSERT_EQ(out.phases.size(), 1u);
    EXPECT_EQ(out.phases[0].intervalCount, ivs.size());
    EXPECT_NEAR(out.phases[0].weight, 1.0, 1e-12);
    for (std::size_t a : out.assignment)
        EXPECT_EQ(a, 0u);
}

TEST(PhaseCluster, EmptyInputYieldsNoPhases)
{
    auto out = clusterIntervals({}, ClusterParams{});
    EXPECT_TRUE(out.phases.empty());
    EXPECT_TRUE(out.assignment.empty());
}

TEST(PhaseCluster, RejectsZeroClusters)
{
    ClusterParams params;
    params.clusters = 0;
    EXPECT_THROW(clusterIntervals(threePhaseTrace(2), params), FatalError);
}

} // namespace
} // namespace ccache::sample
