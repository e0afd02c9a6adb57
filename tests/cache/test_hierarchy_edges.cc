/**
 * @file
 * Edge-case tests for the hierarchy: L3 back-invalidation on eviction
 * (inclusion), write fallbacks under fully-pinned sets, dirty-data
 * survival through deep eviction chains, and NUCA slice behaviour.
 */

#include <gtest/gtest.h>

#include "cache/hierarchy.hh"
#include "common/rng.hh"

namespace ccache::cache {
namespace {

Block
pat(std::uint8_t seed)
{
    Block b;
    for (std::size_t i = 0; i < kBlockSize; ++i)
        b[i] = static_cast<std::uint8_t>(seed * 7 + i);
    return b;
}

class HierarchyEdge : public ::testing::Test
{
  protected:
    HierarchyEdge() : hier(HierarchyParams{}, &em, &stats) {}
    energy::EnergyModel em;
    StatRegistry stats;
    Hierarchy hier;
};

TEST_F(HierarchyEdge, L3EvictionBackInvalidatesPrivateCopies)
{
    // Pin the page->slice mapping so all conflict addresses share slice 0.
    // L3 slice geometry: 2048 sets, 16 ways; same-set stride is
    // 2048 * 64 = 128 KB.
    const Addr base = 0x4000000;
    const Addr stride = 2048 * 64;
    for (unsigned i = 0; i <= 16; ++i)
        hier.mapPage(base + i * stride, 0);

    // Core 0 holds the first block dirty in its L1.
    Block d = pat(1);
    hier.write(0, base, &d);
    ASSERT_TRUE(hier.l1(0).contains(base));

    // Force 16 more blocks into the same L3 set from another core.
    for (unsigned i = 1; i <= 16; ++i)
        hier.read(1, base + i * stride);

    // Inclusion: once base fell out of L3 slice 0, core 0's copies are
    // gone too, and the dirty data reached memory.
    EXPECT_FALSE(hier.l3Slice(0).contains(base));
    EXPECT_FALSE(hier.l1(0).contains(base));
    EXPECT_FALSE(hier.l2(0).contains(base));
    EXPECT_EQ(hier.memory().readBlock(base), d);
    EXPECT_GE(stats.value("hier.l3_writebacks"), 1u);

    // And the data is still readable (from memory).
    Block out;
    auto res = hier.read(0, base, &out);
    EXPECT_EQ(out, d);
    EXPECT_EQ(res.servedBy, ServedBy::Memory);
}

TEST_F(HierarchyEdge, WriteCompletesAtL3WhenL1SetFullyPinned)
{
    const Addr target = 0x210000;
    for (unsigned i = 1; i <= 8; ++i) {
        Addr filler = target + i * 4096;  // same L1 set
        hier.read(0, filler);
        LineRef line = hier.l1(0).find(filler);
        ASSERT_TRUE(line);
        hier.l1(0).pin(line);
    }

    Block d = pat(9);
    hier.write(0, target, &d);
    EXPECT_EQ(hier.debugRead(target), d);
    // Visible to another core.
    Block out;
    hier.read(1, target, &out);
    EXPECT_EQ(out, d);
}

TEST_F(HierarchyEdge, DirtyDataSurvivesL1ThenL2EvictionChain)
{
    // Write a block, evict it from L1 (8 conflicts), then from L2
    // (L2 same-set stride is 512 * 64 = 32 KB, 8 ways).
    const Addr victim = 0x1000000;
    Block d = pat(5);
    hier.write(0, victim, &d);

    for (unsigned i = 1; i <= 8; ++i)
        hier.read(0, victim + i * 4096);  // L1 conflicts
    ASSERT_FALSE(hier.l1(0).contains(victim));
    ASSERT_TRUE(hier.l2(0).contains(victim));

    for (unsigned i = 1; i <= 8; ++i)
        hier.read(0, victim + i * 512 * 64);  // L2 conflicts
    // Regardless of where it ended up, the value must be preserved.
    EXPECT_EQ(hier.debugRead(victim), d);
    Block out;
    hier.read(2, victim, &out);
    EXPECT_EQ(out, d);
}

TEST_F(HierarchyEdge, ExplicitPageMappingControlsSlice)
{
    hier.mapPage(0x7000000, 5);
    EXPECT_EQ(hier.sliceFor(0, 0x7000000), 5u);
    EXPECT_EQ(hier.sliceFor(0, 0x7000FC0), 5u);  // same page
    hier.read(3, 0x7000000);
    EXPECT_TRUE(hier.l3Slice(5).contains(0x7000000));
    EXPECT_FALSE(hier.l3Slice(3).contains(0x7000000));
}

TEST_F(HierarchyEdge, UpgradeFromSharedInvalidatesPeersExactlyOnce)
{
    const Addr addr = 0x800000;
    hier.read(0, addr);
    hier.read(1, addr);
    hier.read(2, addr);
    std::uint64_t before = stats.value("hier.sharer_invalidations");
    Block d = pat(3);
    hier.write(1, addr, &d);
    EXPECT_EQ(stats.value("hier.sharer_invalidations") - before, 2u);
    // Second write by the same core is silent (already M).
    hier.write(1, addr, &d);
    EXPECT_EQ(stats.value("hier.sharer_invalidations") - before, 2u);
}

TEST_F(HierarchyEdge, ReadSharedThenWriteEachCoreRoundRobin)
{
    const Addr addr = 0x900000;
    Rng rng(5);
    Block last = zeroBlock();
    for (int round = 0; round < 12; ++round) {
        CoreId writer = static_cast<CoreId>(round % 4);
        // Everyone reads first (builds a full sharer set).
        for (CoreId c = 0; c < 4; ++c) {
            Block out;
            hier.read(c, addr, &out);
            ASSERT_EQ(out, last) << "round " << round << " core " << c;
        }
        Block d;
        for (auto &byte : d)
            byte = static_cast<std::uint8_t>(rng.below(256));
        hier.write(writer, addr, &d);
        last = d;
    }
}

TEST_F(HierarchyEdge, ForOverwriteAllocatesZeroFilledLine)
{
    hier.fetchToLevel(0, 0xb00000, CacheLevel::L3, true, true);
    unsigned slice = hier.sliceFor(0, 0xb00000);
    LineRef line = hier.l3Slice(slice).find(0xb00000);
    ASSERT_TRUE(line);
    EXPECT_EQ(hier.l3Slice(slice).peek(line), zeroBlock());
    EXPECT_EQ(stats.value("hier.mem_reads"), 0u);
}

TEST_F(HierarchyEdge, RepeatedFetchToLevelIsIdempotentAndCheap)
{
    hier.fetchToLevel(0, 0xc00000, CacheLevel::L3, false);
    Cycles second =
        hier.fetchToLevel(0, 0xc00000, CacheLevel::L3, false).latency;
    // Fast path: already resident, nothing to recall.
    EXPECT_EQ(second, 0u);
    Cycles third =
        hier.fetchToLevel(0, 0xc00000, CacheLevel::L2, false).latency;
    Cycles fourth =
        hier.fetchToLevel(0, 0xc00000, CacheLevel::L2, false).latency;
    EXPECT_GT(third, 0u);
    EXPECT_EQ(fourth, 0u);
}

} // namespace
} // namespace ccache::cache
