/**
 * @file
 * Circuit-level fault-injection hooks: margin failures fire only on
 * dual-row activations, stuck-at defects are deterministic per cell
 * location, and transient upsets corrupt single-row senses.
 */

#include <gtest/gtest.h>

#include <bit>

#include "common/rng.hh"
#include "fault/fault_injector.hh"
#include "sram/subarray.hh"

namespace ccache::sram {
namespace {

SubArrayParams
smallParams()
{
    SubArrayParams p;
    p.rows = 16;
    p.cols = 1024;  // two partitions
    return p;
}

Block
randomBlock(Rng &rng)
{
    Block b;
    for (auto &byte : b)
        byte = static_cast<std::uint8_t>(rng.below(256));
    return b;
}

/** Number of differing bits between two blocks. */
unsigned
bitDiff(const Block &a, const Block &b)
{
    unsigned diff = 0;
    for (std::size_t i = 0; i < kBlockSize; ++i)
        diff += static_cast<unsigned>(std::popcount(
            static_cast<unsigned>(a[i] ^ b[i])));
    return diff;
}

TEST(SubArrayFaults, UnattachedAndDisabledInjectorsAreInert)
{
    SubArray sa(smallParams());
    Rng rng(1);
    Block data = randomBlock(rng);
    sa.write({0, 0}, data);
    EXPECT_EQ(sa.read({0, 0}), data);
    EXPECT_FALSE(sa.lastMarginFailed());
    EXPECT_TRUE(sa.lastSenseFault().none());

    fault::FaultParams fp;  // enabled = false
    fp.transientPerBlockOp = 1.0;
    fp.enabled = false;
    fault::FaultInjector inj(fp);
    sa.attachFaults(&inj, 17);
    EXPECT_EQ(sa.read({0, 0}), data);
    EXPECT_TRUE(sa.lastSenseFault().none());
}

TEST(SubArrayFaults, RawActivateMarginFailureZeroesMargin)
{
    // rawActivate shares the dual-row ops' margin-failure draw: a failure
    // flips one column of both senses and reports a zero margin, and a
    // single-row activation never draws.
    fault::FaultParams fp;
    fp.enabled = true;
    fp.seed = 3;
    fp.marginFailPerDualRowOp = 1.0;
    fault::FaultInjector inj(fp);

    SubArray clean(smallParams());
    SubArray faulty(smallParams());
    faulty.attachFaults(&inj, 5);
    Rng rng(4);
    for (std::size_t r = 0; r < 2; ++r) {
        Block b = randomBlock(rng);
        clean.write({0, r}, b);
        faulty.write({0, r}, b);
    }

    auto want = clean.rawActivate({0, 1});
    auto got = faulty.rawActivate({0, 1});
    EXPECT_TRUE(faulty.lastMarginFailed());
    EXPECT_EQ(got.margin, 0.0);
    BitVector flipped = got.andResult ^ want.andResult;
    EXPECT_EQ(flipped.popcount(), 1u);
    EXPECT_TRUE(flipped == (got.norResult ^ want.norResult));

    auto single = faulty.rawActivate({0});
    EXPECT_FALSE(faulty.lastMarginFailed());
    EXPECT_EQ(single.margin, clean.rawActivate({0}).margin);
}

TEST(SubArrayFaults, MarginFailureOnlyOnDualRowActivation)
{
    fault::FaultParams fp;
    fp.enabled = true;
    fp.seed = 3;
    fp.marginFailPerDualRowOp = 1.0;
    fault::FaultInjector inj(fp);

    SubArray sa(smallParams());
    sa.attachFaults(&inj, 5);

    Rng rng(2);
    Block a = randomBlock(rng);
    Block b = randomBlock(rng);
    sa.write({0, 0}, a);
    sa.write({0, 1}, b);

    // Single-row read: full margin, no failure possible.
    EXPECT_EQ(sa.read({0, 0}), a);
    EXPECT_FALSE(sa.lastMarginFailed());

    // Dual-row AND: the margin failure corrupts exactly one column of
    // the sensed result.
    sa.opAnd({0, 0}, {0, 1}, {0, 2});
    EXPECT_TRUE(sa.lastMarginFailed());
    Block expect{};
    for (std::size_t i = 0; i < kBlockSize; ++i)
        expect[i] = a[i] & b[i];
    EXPECT_EQ(bitDiff(sa.read({0, 2}), expect), 1u);

    // The sources were not disturbed.
    EXPECT_EQ(sa.read({0, 0}), a);
    EXPECT_EQ(sa.read({0, 1}), b);
}

TEST(SubArrayFaults, StuckAtDefectIsStablePerLocation)
{
    fault::FaultParams fp;
    fp.enabled = true;
    fp.seed = 4;
    fp.stuckAtPerBlock = 1.0;
    fault::FaultInjector inj(fp);

    SubArray sa(smallParams());
    sa.attachFaults(&inj, 9);

    Rng rng(3);
    Block data = randomBlock(rng);
    sa.write({1, 4}, data);

    Block first = sa.read({1, 4});
    EXPECT_EQ(bitDiff(first, data), 1u);
    EXPECT_EQ(sa.lastSenseFault().kind, fault::FaultKind::StuckAt);
    // The defect is tied to the cells, not to a draw: every read of the
    // same location sees the same flip.
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(sa.read({1, 4}), first);
}

TEST(SubArrayFaults, TransientUpsetsCorruptSenses)
{
    fault::FaultParams fp;
    fp.enabled = true;
    fp.seed = 5;
    fp.transientPerBlockOp = 1.0;
    fp.doubleBitFraction = 0.0;
    fp.burstFraction = 0.0;
    fault::FaultInjector inj(fp);

    SubArray sa(smallParams());
    sa.attachFaults(&inj, 2);

    Rng rng(4);
    Block data = randomBlock(rng);
    sa.write({0, 3}, data);

    // Every sense suffers a fresh single-bit upset; the stored cells
    // keep the true data.
    for (int i = 0; i < 5; ++i) {
        Block seen = sa.read({0, 3});
        EXPECT_EQ(bitDiff(seen, data), 1u);
        EXPECT_EQ(sa.lastSenseFault().kind,
                  fault::FaultKind::TransientSingle);
    }
}

} // namespace
} // namespace ccache::sram
