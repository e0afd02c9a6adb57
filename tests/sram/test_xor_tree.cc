/**
 * @file
 * Unit tests for the XOR-reduction tree behind cc_clmul.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "sram/xor_reduction_tree.hh"

namespace ccache::sram {
namespace {

TEST(XorTree, ReduceAllParity)
{
    XorReductionTree tree(512);
    BitVector bits(512);
    EXPECT_FALSE(tree.reduceAll(bits));
    bits.set(13, true);
    EXPECT_TRUE(tree.reduceAll(bits));
    bits.set(400, true);
    EXPECT_FALSE(tree.reduceAll(bits));
}

TEST(XorTree, ReduceWordsMatchesPopcountParity)
{
    XorReductionTree tree(512);
    Rng rng(17);
    BitVector bits(512);
    for (std::size_t i = 0; i < 512; ++i)
        bits.set(i, rng.chance(0.5));

    for (std::size_t width : {64u, 128u, 256u}) {
        auto parities = tree.reduceWords(bits, width);
        ASSERT_EQ(parities.size(), 512 / width);
        for (std::size_t w = 0; w < parities.size(); ++w) {
            unsigned ones = 0;
            for (std::size_t b = 0; b < width; ++b)
                ones += bits.get(w * width + b) ? 1 : 0;
            EXPECT_EQ(parities[w], (ones & 1) != 0);
        }
    }
}

TEST(XorTree, DepthIsLogarithmic)
{
    EXPECT_EQ(XorReductionTree::depth(64), 6u);
    EXPECT_EQ(XorReductionTree::depth(128), 7u);
    EXPECT_EQ(XorReductionTree::depth(256), 8u);
}

TEST(XorTree, LinearityProperty)
{
    // XOR reduction is linear: reduce(a ^ b) == reduce(a) ^ reduce(b).
    XorReductionTree tree(512);
    Rng rng(23);
    for (int iter = 0; iter < 50; ++iter) {
        BitVector a(512), b(512);
        for (std::size_t i = 0; i < 512; ++i) {
            a.set(i, rng.chance(0.5));
            b.set(i, rng.chance(0.5));
        }
        EXPECT_EQ(tree.reduceAll(a ^ b),
                  tree.reduceAll(a) ^ tree.reduceAll(b));
    }
}

} // namespace
} // namespace ccache::sram
