/**
 * @file
 * Unit tests for the near-place logic unit and the shared BlockCompute
 * semantics, including the equivalence of BlockCompute with the
 * circuit-level sub-array for every operation (the bridge that justifies
 * the fast in-place functional path).
 */

#include <gtest/gtest.h>

#include "cc/near_place_unit.hh"
#include "common/rng.hh"
#include "sram/subarray.hh"

namespace ccache::cc {
namespace {

Block
randomBlock(Rng &rng)
{
    Block b;
    for (auto &byte : b)
        byte = static_cast<std::uint8_t>(rng.below(256));
    return b;
}

TEST(BlockComputeTest, MatchesCircuitModelForAllOps)
{
    // The controller's in-place fast path uses BlockCompute; prove it
    // equals the bit-line circuit semantics op by op.
    sram::SubArrayParams sp;
    sp.rows = 8;
    sp.cols = 512;
    sram::SubArray sa(sp);
    Rng rng(31);

    for (int iter = 0; iter < 25; ++iter) {
        Block a = randomBlock(rng), b = randomBlock(rng);
        sa.write({0, 0}, a);
        sa.write({0, 1}, b);

        sa.opAnd({0, 0}, {0, 1}, {0, 2});
        EXPECT_EQ(sa.read({0, 2}), BlockCompute::apply(CcOpcode::And, a, b));

        sa.opOr({0, 0}, {0, 1}, {0, 2});
        EXPECT_EQ(sa.read({0, 2}), BlockCompute::apply(CcOpcode::Or, a, b));

        sa.opXor({0, 0}, {0, 1}, {0, 2});
        EXPECT_EQ(sa.read({0, 2}), BlockCompute::apply(CcOpcode::Xor, a, b));

        sa.opNot({0, 0}, {0, 2});
        EXPECT_EQ(sa.read({0, 2}), BlockCompute::apply(CcOpcode::Not, a, b));

        sa.opCopy({0, 0}, {0, 2});
        EXPECT_EQ(sa.read({0, 2}),
                  BlockCompute::apply(CcOpcode::Copy, a, b));

        auto cmp = sa.opCmp({0, 0}, {0, 1});
        EXPECT_EQ(cmp.wordEqualMask & 0xff,
                  BlockCompute::wordEqualMask(a, b) & 0xff);

        for (std::size_t bits : {64u, 128u, 256u}) {
            auto cl = sa.opClmul({0, 0}, {0, 1}, bits);
            Block packed = BlockCompute::clmulPack(a, b, bits);
            std::uint64_t expect = blockWord(packed, 0);
            for (std::size_t i = 0; i < cl.parities.size(); ++i)
                EXPECT_EQ(cl.parities[i], ((expect >> i) & 1) != 0);
        }
    }
}

TEST(BlockComputeTest, WordEqualMaskEdges)
{
    Block a{}, b{};
    EXPECT_EQ(BlockCompute::wordEqualMask(a, b), 0xffu);
    setBlockWord(b, 0, 1);
    setBlockWord(b, 7, 1);
    EXPECT_EQ(BlockCompute::wordEqualMask(a, b), 0x7eu);
}

TEST(BlockComputeTest, BuzIgnoresInputs)
{
    Rng rng(4);
    Block a = randomBlock(rng);
    EXPECT_EQ(BlockCompute::apply(CcOpcode::Buz, a, a), zeroBlock());
}

class NearPlaceTest : public ::testing::Test
{
  protected:
    NearPlaceTest() : unit(&em, &stats) {}
    energy::EnergyModel em;
    StatRegistry stats;
    NearPlaceUnit unit;
    Rng rng{77};
};

TEST_F(NearPlaceTest, ComputesRwResult)
{
    Block a = randomBlock(rng), b = randomBlock(rng);
    auto res = unit.execute(CcOpcode::Xor, CacheLevel::L3, a, b);
    EXPECT_EQ(res.result, BlockCompute::apply(CcOpcode::Xor, a, b));
    EXPECT_EQ(res.latency, nearPlaceLatency(CacheLevel::L3));
    EXPECT_EQ(unit.opsExecuted(), 1u);
    EXPECT_EQ(stats.value("cc.near_place_ops"), 1u);
}

TEST_F(NearPlaceTest, ComputesCmpMask)
{
    Block a = randomBlock(rng);
    Block b = a;
    b[9] ^= 1;  // word 1 differs
    auto res = unit.execute(CcOpcode::Cmp, CacheLevel::L2, a, b);
    EXPECT_EQ(res.wordEqualMask, 0xffu & ~(1u << 1));
    EXPECT_EQ(res.latency, nearPlaceLatency(CacheLevel::L2));
}

TEST_F(NearPlaceTest, LatencyScalesByLevel)
{
    EXPECT_GT(nearPlaceLatency(CacheLevel::L3),
              nearPlaceLatency(CacheLevel::L2));
    EXPECT_GT(nearPlaceLatency(CacheLevel::L2),
              nearPlaceLatency(CacheLevel::L1));
}

TEST_F(NearPlaceTest, ChargesHtreeReadsAndWriteback)
{
    Block a = randomBlock(rng), b = randomBlock(rng);
    unit.execute(CcOpcode::And, CacheLevel::L3, a, b);
    // Two source reads cross the H-tree + one result write + logic.
    double expect =
        2 * energy::cacheOpEnergy(CacheLevel::L3, energy::CacheOp::Read) +
        energy::cacheOpEnergy(CacheLevel::L3, energy::CacheOp::Write) +
        energy::kNearPlaceLogicPerBlock;
    EXPECT_DOUBLE_EQ(em.dynamic().dynamicTotal(), expect);
}

TEST_F(NearPlaceTest, ChargesEverythingToItsOwnLevel)
{
    // An L1 op reads, computes and writes back at the L1 controller:
    // the logic-unit energy lands in l1-access, not in L3's.
    Block a = randomBlock(rng), b = randomBlock(rng);
    unit.execute(CcOpcode::And, CacheLevel::L1, a, b);
    const auto &d = em.dynamic();
    EXPECT_EQ(d.l3Access, 0.0);
    EXPECT_EQ(d.l3Ic, 0.0);
    EXPECT_EQ(d.l2Access + d.l2Ic, 0.0);
    double expect =
        2 * energy::cacheOpEnergy(CacheLevel::L1, energy::CacheOp::Read) +
        energy::cacheOpEnergy(CacheLevel::L1, energy::CacheOp::Write) +
        energy::kNearPlaceLogicPerBlock;
    EXPECT_DOUBLE_EQ(d.l1Access + d.l1Ic, expect);
}

TEST_F(NearPlaceTest, CcRChargesNoWriteback)
{
    Block a = randomBlock(rng), b = randomBlock(rng);
    unit.execute(CcOpcode::Cmp, CacheLevel::L3, a, b);
    double expect =
        2 * energy::cacheOpEnergy(CacheLevel::L3, energy::CacheOp::Read) +
        energy::kNearPlaceLogicPerBlock;
    EXPECT_DOUBLE_EQ(em.dynamic().dynamicTotal(), expect);
}

TEST_F(NearPlaceTest, NearPlaceCostsMoreThanInPlacePerOp)
{
    // Section IV-J: near-place pays H-tree transfers that in-place
    // avoids; per-block energy must exceed the Table V in-place cost.
    Block a = randomBlock(rng), b = randomBlock(rng);
    unit.execute(CcOpcode::And, CacheLevel::L3, a, b);
    double near_place = em.dynamic().dynamicTotal();
    double in_place =
        energy::cacheOpEnergy(CacheLevel::L3, energy::CacheOp::Logic);
    EXPECT_GT(near_place, 2.0 * in_place);
}

} // namespace
} // namespace ccache::cc
