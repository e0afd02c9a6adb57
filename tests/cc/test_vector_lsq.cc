/**
 * @file
 * Tests for memory disambiguation with vector CC instructions
 * (Section IV-H): split LSQ, range checks, non-coalescing vector store
 * buffer, and cross-buffer same-location stalls.
 */

#include <gtest/gtest.h>

#include "cc/vector_lsq.hh"

namespace ccache::cc {
namespace {

TEST(VectorAccessTest, RangesPerOpcode)
{
    auto copy = VectorAccess::of(CcInstruction::copy(0x1000, 0x2000, 256));
    ASSERT_EQ(copy.reads.size(), 1u);
    ASSERT_EQ(copy.writes.size(), 1u);
    EXPECT_EQ(copy.reads[0].base, 0x1000u);
    EXPECT_EQ(copy.reads[0].len, 256u);
    EXPECT_EQ(copy.comparisons(), 2u);

    auto s = VectorAccess::of(CcInstruction::search(0x1000, 0x5000, 512));
    ASSERT_EQ(s.reads.size(), 2u);
    EXPECT_EQ(s.reads[1].len, kSearchKeyBytes);
    EXPECT_TRUE(s.writes.empty());

    auto x =
        VectorAccess::of(CcInstruction::logicalXor(0x0, 0x1000, 0x2000,
                                                   128));
    EXPECT_EQ(x.comparisons(), 3u);
}

TEST(VectorAccessTest, BitSerialOperandsCoverEverySlice)
{
    // cc_add of 8-bit lanes over 64-byte slice rows: each operand is 8
    // slices one page apart, and a scalar load from the destination's
    // last slice must wait for the pending add.
    auto add = CcInstruction::add(0x10000, 0x20000, 0x30000, 64, 8);
    auto access = VectorAccess::of(add);
    ASSERT_EQ(access.reads.size(), 2u);
    ASSERT_EQ(access.writes.size(), 1u);
    EXPECT_EQ(access.writes[0].base, 0x30000u);
    EXPECT_EQ(access.writes[0].end(),
              CcInstruction::sliceAddr(0x30000, 7) + 64);

    VectorLsq lsq;
    ASSERT_TRUE(lsq.insertVector(add));
    EXPECT_FALSE(
        lsq.scalarLoadMayExecute(CcInstruction::sliceAddr(0x30000, 7)));
    EXPECT_TRUE(
        lsq.scalarLoadMayExecute(CcInstruction::sliceAddr(0x30000, 8)));

    // A compare writes one predicate slice.
    auto lt = VectorAccess::of(
        CcInstruction::cmpLt(0x10000, 0x20000, 0x30000, 64, 8, false));
    EXPECT_EQ(lt.writes[0].len, 64u);
    EXPECT_EQ(lt.reads[1].end(), CcInstruction::sliceAddr(0x20000, 7) + 64);
}

TEST(AddrRangeTest, OverlapSemantics)
{
    AddrRange a{0x1000, 0x100};
    EXPECT_TRUE(a.overlaps({0x10ff, 1}));
    EXPECT_FALSE(a.overlaps({0x1100, 0x100}));
    EXPECT_TRUE(a.overlaps({0x0, 0x1001}));
    EXPECT_TRUE(a.contains(0x1000));
    EXPECT_FALSE(a.contains(0x1100));
}

TEST(VectorLsqTest, ScalarStoreCoalescing)
{
    VectorLsq lsq;
    auto a = lsq.insertScalarStore(0x1000);
    auto b = lsq.insertScalarStore(0x1004);  // same word: coalesces
    ASSERT_TRUE(a);
    ASSERT_TRUE(b);
    EXPECT_EQ(*a, *b);
    EXPECT_EQ(lsq.scalarStoresInFlight(), 1u);

    auto c = lsq.insertScalarStore(0x1008);  // different word
    ASSERT_TRUE(c);
    EXPECT_NE(*a, *c);
    EXPECT_EQ(lsq.scalarStoresInFlight(), 2u);
}

TEST(VectorLsqTest, VectorStoresNeverCoalesce)
{
    VectorLsq lsq;
    auto a = lsq.insertVector(CcInstruction::copy(0x1000, 0x2000, 64));
    auto b = lsq.insertVector(CcInstruction::copy(0x1000, 0x2000, 64));
    ASSERT_TRUE(a);
    ASSERT_TRUE(b);
    EXPECT_NE(*a, *b);
    EXPECT_EQ(lsq.vectorsInFlight(), 2u);
}

TEST(VectorLsqTest, ComparatorBudgetRejectsWideEntries)
{
    VectorLsqParams p;
    p.maxComparisonsPerEntry = 2;
    VectorLsq lsq(p);
    // xor needs 3 range comparators: rejected under a 2-comparator budget.
    EXPECT_FALSE(
        lsq.insertVector(CcInstruction::logicalXor(0x0, 0x1000, 0x2000, 64))
            .has_value());
    EXPECT_TRUE(
        lsq.insertVector(CcInstruction::copy(0x0, 0x1000, 64)).has_value());
}

TEST(VectorLsqTest, ScalarLoadBlockedByOverlappingVectorStore)
{
    VectorLsq lsq;
    lsq.insertVector(CcInstruction::copy(0x1000, 0x2000, 256));
    // No forwarding from vector stores: loads inside the written range
    // must wait.
    EXPECT_FALSE(lsq.scalarLoadMayExecute(0x2080));
    EXPECT_FALSE(lsq.scalarLoadMayExecute(0x20f8));
    // Loads from the read-only source or elsewhere proceed (RMO).
    EXPECT_TRUE(lsq.scalarLoadMayExecute(0x1000));
    EXPECT_TRUE(lsq.scalarLoadMayExecute(0x2100));
}

TEST(VectorLsqTest, CrossBufferStallScalarBehindVector)
{
    VectorLsq lsq;
    auto v = lsq.insertVector(CcInstruction::buz(0x3000, 128));
    ASSERT_TRUE(v);
    auto s = lsq.insertScalarStore(0x3040);  // same location
    ASSERT_TRUE(s);
    EXPECT_TRUE(lsq.isStalled(*s));
    EXPECT_EQ(lsq.crossBufferStalls(), 1u);

    // The stall bit resets when the predecessor completes.
    lsq.retireVector(*v);
    EXPECT_FALSE(lsq.isStalled(*s));
}

TEST(VectorLsqTest, CrossBufferStallVectorBehindScalar)
{
    VectorLsq lsq;
    auto s = lsq.insertScalarStore(0x4040);
    ASSERT_TRUE(s);
    auto v = lsq.insertVector(CcInstruction::buz(0x4000, 128));
    ASSERT_TRUE(v);
    EXPECT_TRUE(lsq.isStalled(*v));
    EXPECT_FALSE(lsq.vectorMayExecute(*v));
    lsq.retireScalarStore(*s);
    EXPECT_TRUE(lsq.vectorMayExecute(*v));
}

TEST(VectorLsqTest, CcRMayBypassDisjointStores)
{
    VectorLsq lsq;
    lsq.insertScalarStore(0x9000);
    auto cmp = lsq.insertVector(CcInstruction::cmp(0x1000, 0x2000, 256));
    ASSERT_TRUE(cmp);
    // RMO: CC-R executes out of order past disjoint stores.
    EXPECT_TRUE(lsq.vectorMayExecute(*cmp));
}

TEST(VectorLsqTest, CcRWaitsForOverlappingOlderStore)
{
    VectorLsq lsq;
    lsq.insertScalarStore(0x1040);
    auto cmp = lsq.insertVector(CcInstruction::cmp(0x1000, 0x2000, 256));
    ASSERT_TRUE(cmp);
    EXPECT_FALSE(lsq.vectorMayExecute(*cmp));
}

TEST(VectorLsqTest, VectorOrderingAgainstOlderVectorStore)
{
    VectorLsq lsq;
    auto older = lsq.insertVector(CcInstruction::copy(0x1000, 0x2000, 256));
    auto younger =
        lsq.insertVector(CcInstruction::cmp(0x2000, 0x5000, 256));
    ASSERT_TRUE(older);
    ASSERT_TRUE(younger);
    // The younger cmp reads what the older copy writes.
    EXPECT_FALSE(lsq.vectorMayExecute(*younger));
    lsq.retireVector(*older);
    EXPECT_TRUE(lsq.vectorMayExecute(*younger));
}

TEST(VectorLsqTest, FenceDrainsEverything)
{
    VectorLsq lsq;
    auto s = lsq.insertScalarStore(0x100);
    auto v = lsq.insertVector(CcInstruction::buz(0x5000, 64));
    EXPECT_FALSE(lsq.fenceMayCommit());
    lsq.retireScalarStore(*s);
    EXPECT_FALSE(lsq.fenceMayCommit());
    lsq.retireVector(*v);
    EXPECT_TRUE(lsq.fenceMayCommit());
}

TEST(VectorLsqTest, CapacityLimits)
{
    VectorLsqParams p;
    p.vectorEntries = 2;
    p.scalarStoreEntries = 2;
    VectorLsq lsq(p);
    EXPECT_TRUE(lsq.insertVector(CcInstruction::buz(0x0, 64)));
    EXPECT_TRUE(lsq.insertVector(CcInstruction::buz(0x1000, 64)));
    EXPECT_FALSE(lsq.insertVector(CcInstruction::buz(0x2000, 64)));
    EXPECT_TRUE(lsq.insertScalarStore(0x100));
    EXPECT_TRUE(lsq.insertScalarStore(0x200));
    EXPECT_FALSE(lsq.insertScalarStore(0x300));
}

} // namespace
} // namespace ccache::cc
