/**
 * @file
 * Unit + property tests for the compute-capable SRAM sub-array: every
 * bit-line operation is checked against a reference software
 * implementation on randomized block contents.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/rng.hh"
#include "sram/subarray.hh"

namespace ccache::sram {
namespace {

SubArrayParams
smallParams()
{
    SubArrayParams p;
    p.rows = 16;
    p.cols = 1024;  // two 64-byte blocks per row -> two partitions
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

class SubArrayTest : public ::testing::Test
{
  protected:
    SubArrayTest() : sa(smallParams()) {}
    SubArray sa;
    Rng rng{42};
};

TEST_F(SubArrayTest, GeometryDerivation)
{
    EXPECT_EQ(sa.partitions(), 2u);
    EXPECT_EQ(sa.rowsPerPartition(), 16u);
    EXPECT_EQ(sa.params().capacityBytes(), 16u * 1024u / 8u);
}

TEST_F(SubArrayTest, ReadWriteRoundTrip)
{
    for (std::size_t p = 0; p < sa.partitions(); ++p) {
        for (std::size_t r = 0; r < 4; ++r) {
            Block data = randomBlock(rng);
            sa.write({p, r}, data);
            EXPECT_EQ(sa.read({p, r}), data);
        }
    }
}

TEST_F(SubArrayTest, WriteDoesNotDisturbNeighbourPartition)
{
    Block a = randomBlock(rng);
    Block b = randomBlock(rng);
    sa.write({0, 3}, a);
    sa.write({1, 3}, b);  // same row, other partition
    EXPECT_EQ(sa.read({0, 3}), a);
    EXPECT_EQ(sa.read({1, 3}), b);
}

TEST_F(SubArrayTest, AndMatchesReference)
{
    for (int iter = 0; iter < 20; ++iter) {
        Block a = randomBlock(rng), b = randomBlock(rng);
        sa.write({0, 0}, a);
        sa.write({0, 1}, b);
        sa.opAnd({0, 0}, {0, 1}, {0, 2});
        Block expect;
        for (std::size_t i = 0; i < kBlockSize; ++i)
            expect[i] = a[i] & b[i];
        EXPECT_EQ(sa.read({0, 2}), expect);
        // Sources must be unmodified (non-destructive compute).
        EXPECT_EQ(sa.read({0, 0}), a);
        EXPECT_EQ(sa.read({0, 1}), b);
    }
}

TEST_F(SubArrayTest, OrMatchesReference)
{
    for (int iter = 0; iter < 20; ++iter) {
        Block a = randomBlock(rng), b = randomBlock(rng);
        sa.write({1, 0}, a);
        sa.write({1, 1}, b);
        sa.opOr({1, 0}, {1, 1}, {1, 2});
        Block expect;
        for (std::size_t i = 0; i < kBlockSize; ++i)
            expect[i] = a[i] | b[i];
        EXPECT_EQ(sa.read({1, 2}), expect);
    }
}

TEST_F(SubArrayTest, XorMatchesReference)
{
    for (int iter = 0; iter < 20; ++iter) {
        Block a = randomBlock(rng), b = randomBlock(rng);
        sa.write({0, 4}, a);
        sa.write({0, 5}, b);
        sa.opXor({0, 4}, {0, 5}, {0, 6});
        Block expect;
        for (std::size_t i = 0; i < kBlockSize; ++i)
            expect[i] = a[i] ^ b[i];
        EXPECT_EQ(sa.read({0, 6}), expect);
    }
}

TEST_F(SubArrayTest, NorMatchesReference)
{
    Block a = randomBlock(rng), b = randomBlock(rng);
    sa.write({0, 0}, a);
    sa.write({0, 1}, b);
    sa.opNor({0, 0}, {0, 1}, {0, 2});
    Block expect;
    for (std::size_t i = 0; i < kBlockSize; ++i)
        expect[i] = static_cast<std::uint8_t>(~(a[i] | b[i]));
    EXPECT_EQ(sa.read({0, 2}), expect);
}

TEST_F(SubArrayTest, NotMatchesReference)
{
    Block a = randomBlock(rng);
    sa.write({0, 7}, a);
    sa.opNot({0, 7}, {0, 8});
    Block expect;
    for (std::size_t i = 0; i < kBlockSize; ++i)
        expect[i] = static_cast<std::uint8_t>(~a[i]);
    EXPECT_EQ(sa.read({0, 8}), expect);
    EXPECT_EQ(sa.read({0, 7}), a);
}

TEST_F(SubArrayTest, CopyAndBuz)
{
    Block a = randomBlock(rng);
    sa.write({1, 2}, a);
    sa.opCopy({1, 2}, {1, 9});
    EXPECT_EQ(sa.read({1, 9}), a);
    EXPECT_EQ(sa.read({1, 2}), a);
    sa.opBuz({1, 9});
    EXPECT_EQ(sa.read({1, 9}), zeroBlock());
}

TEST_F(SubArrayTest, CmpDetectsWordDifferences)
{
    Block a = randomBlock(rng);
    Block b = a;
    // Flip one bit in words 1 and 6.
    b[8] ^= 0x01;
    b[48] ^= 0x80;
    sa.write({0, 0}, a);
    sa.write({0, 1}, b);
    auto result = sa.opCmp({0, 0}, {0, 1});
    EXPECT_FALSE(result.allEqual);
    // Words 1 and 6 differ, others equal.
    EXPECT_EQ(result.wordEqualMask, 0xffu & ~((1u << 1) | (1u << 6)));
}

TEST_F(SubArrayTest, CmpEqualBlocks)
{
    Block a = randomBlock(rng);
    sa.write({0, 0}, a);
    sa.write({0, 1}, a);
    auto result = sa.opCmp({0, 0}, {0, 1});
    EXPECT_TRUE(result.allEqual);
    EXPECT_EQ(result.wordEqualMask, 0xffu);
}

TEST_F(SubArrayTest, SearchMatchesCmp)
{
    Block key = randomBlock(rng);
    Block data = key;
    data[0] ^= 0xff;
    sa.write({0, 0}, key);
    sa.write({0, 1}, data);
    auto result = sa.opSearch({0, 0}, {0, 1});
    EXPECT_FALSE(result.allEqual);
    EXPECT_EQ(result.wordEqualMask & 1u, 0u);
}

TEST_F(SubArrayTest, ClmulMatchesReference)
{
    for (std::size_t word_bits : {64u, 128u, 256u}) {
        Block a = randomBlock(rng), b = randomBlock(rng);
        sa.write({0, 0}, a);
        sa.write({0, 1}, b);
        auto result = sa.opClmul({0, 0}, {0, 1}, word_bits);
        ASSERT_EQ(result.parities.size(), 8 * kBlockSize / word_bits);
        // Reference: parity of AND per word.
        for (std::size_t w = 0; w < result.parities.size(); ++w) {
            unsigned ones = 0;
            for (std::size_t bit = 0; bit < word_bits; ++bit) {
                std::size_t idx = w * word_bits + bit;
                bool ba = (a[idx / 8] >> (idx % 8)) & 1;
                bool bb = (b[idx / 8] >> (idx % 8)) & 1;
                ones += (ba && bb) ? 1 : 0;
            }
            EXPECT_EQ(result.parities[w], (ones & 1) != 0)
                << "word " << w << " width " << word_bits;
        }
    }
}

TEST(SubArrayParams, ValidateRejectsBadConfigs)
{
    SubArrayParams p;
    p.rows = 0;
    EXPECT_THROW(p.validate(), FatalError);

    p = SubArrayParams{};
    p.cols = 100;  // not a power of two / not whole blocks
    EXPECT_THROW(p.validate(), FatalError);

    p = SubArrayParams{};
    p.wordlineUnderdrive = 1.5;
    EXPECT_THROW(p.validate(), FatalError);
}

// ---------------------------------------------------------------------
// Robustness: multi-row activation and the read-disturb failure mode.
// ---------------------------------------------------------------------

TEST(SubArrayRobustness, SafeMultiRowActivationPreservesData)
{
    SubArrayParams p;
    p.rows = 128;
    p.cols = 512;
    SubArray sa(p);
    Rng rng(1);

    std::vector<Block> blocks;
    for (std::size_t r = 0; r < 64; ++r) {
        Block b = randomBlock(rng);
        blocks.push_back(b);
        sa.write({0, r}, b);
    }

    // Activate the maximum demonstrated-safe 64 word-lines at once.
    std::vector<std::size_t> rows(64);
    for (std::size_t r = 0; r < 64; ++r)
        rows[r] = r;
    auto sense = sa.rawActivate(rows);

    // AND of all 64 rows on BL, NOR on BLB.
    for (std::size_t c = 0; c < 64; ++c) {
        bool all_ones = true, all_zeros = true;
        for (std::size_t r = 0; r < 64; ++r) {
            bool bit = (blocks[r][c / 8] >> (c % 8)) & 1;
            all_ones &= bit;
            all_zeros &= !bit;
        }
        EXPECT_EQ(sense.andResult.get(c), all_ones);
        EXPECT_EQ(sense.norResult.get(c), all_zeros);
    }

    // No corruption: every row reads back intact.
    for (std::size_t r = 0; r < 64; ++r)
        EXPECT_EQ(sa.read({0, r}), blocks[r]) << "row " << r;
}

TEST(SubArrayRobustness, ExcessiveActivationCorrupts)
{
    SubArrayParams p;
    p.rows = 128;
    p.cols = 512;
    p.maxSafeActiveRows = 4;
    SubArray sa(p);

    // Rows of alternating ones and zeros guarantee discharged bit-lines.
    Block ones;
    ones.fill(0xff);
    for (std::size_t r = 0; r < 8; ++r)
        sa.write({0, r}, r % 2 ? ones : zeroBlock());

    std::vector<std::size_t> rows = {0, 1, 2, 3, 4, 5, 6, 7};
    sa.rawActivate(rows);

    // Beyond maxSafeActiveRows the '1' cells on discharged columns flip.
    EXPECT_NE(sa.read({0, 1}), ones);
}

TEST(SubArrayRobustness, SenseMarginSupportsSixSigma)
{
    SubArrayParams p;
    p.rows = 16;
    p.cols = 512;
    SubArray sa(p);
    Block a, b;
    a.fill(0xaa);
    b.fill(0x55);
    sa.write({0, 0}, a);
    sa.write({0, 1}, b);
    auto sense = sa.rawActivate({0, 1});

    // With pull strength 0.6 and Vref 0.5, the worst-case margin is 0.1
    // VDD; a 15 mV-sigma amplifier offset (0.015 VDD) gives > 6 sigma.
    EXPECT_GE(sense.margin, 0.1 - 1e-9);
    Rng rng(99);
    double fail = monteCarloFailureRate(
        sense.margin, 0.015, 200000, rng);
    EXPECT_EQ(fail, 0.0);
}

} // namespace
} // namespace ccache::sram
