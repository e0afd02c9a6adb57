/**
 * @file
 * Integration tests for the coherent 3-level hierarchy: MESI transitions,
 * inclusion, writebacks, NUCA slice mapping, CC operand staging, and a
 * randomized coherence soak test against a flat reference memory.
 */

#include <gtest/gtest.h>

#include <map>

#include "cache/hierarchy.hh"
#include "common/rng.hh"

namespace ccache::cache {
namespace {

Block
patternBlock(std::uint8_t seed)
{
    Block b;
    for (std::size_t i = 0; i < kBlockSize; ++i)
        b[i] = static_cast<std::uint8_t>(seed ^ (i * 7));
    return b;
}

class HierarchyTest : public ::testing::Test
{
  protected:
    HierarchyTest() : hier(HierarchyParams{}, &em, &stats) {}
    energy::EnergyModel em;
    StatRegistry stats;
    Hierarchy hier;
};

TEST_F(HierarchyTest, ColdReadComesFromMemory)
{
    Block out;
    auto res = hier.read(0, 0x10000, &out);
    EXPECT_EQ(res.servedBy, ServedBy::Memory);
    EXPECT_EQ(out, zeroBlock());
    // Latency includes at least L1 + L2 + L3 + DRAM.
    EXPECT_GT(res.latency, 120u);
    EXPECT_EQ(stats.value("hier.l1_misses"), 1u);
    EXPECT_EQ(stats.value("hier.mem_reads"), 1u);
}

TEST_F(HierarchyTest, SecondReadHitsL1)
{
    hier.read(0, 0x10000);
    auto res = hier.read(0, 0x10000);
    EXPECT_EQ(res.servedBy, ServedBy::L1);
    EXPECT_EQ(res.latency, 5u);
    EXPECT_EQ(stats.value("hier.l1_hits"), 1u);
}

TEST_F(HierarchyTest, WriteThenReadReturnsData)
{
    Block data = patternBlock(0x42);
    hier.write(0, 0x20000, &data);
    Block out;
    hier.read(0, 0x20000, &out);
    EXPECT_EQ(out, data);
    EXPECT_EQ(hier.l1(0).state(0x20000), Mesi::Modified);
}

TEST_F(HierarchyTest, InclusionL1InL2InL3)
{
    hier.read(0, 0x30000);
    Addr blk = 0x30000;
    EXPECT_TRUE(hier.l1(0).contains(blk));
    EXPECT_TRUE(hier.l2(0).contains(blk));
    unsigned slice = hier.sliceFor(0, blk);
    EXPECT_TRUE(hier.l3Slice(slice).contains(blk));
}

TEST_F(HierarchyTest, FirstTouchBindsPageToLocalSlice)
{
    EXPECT_EQ(hier.sliceFor(3, 0x40000), 3u);
    // The binding is sticky even when another core touches it later.
    EXPECT_EQ(hier.sliceFor(5, 0x40000), 3u);
    // Explicit mapping overrides.
    hier.mapPage(0x50000, 6);
    EXPECT_EQ(hier.sliceFor(0, 0x50000), 6u);
}

TEST_F(HierarchyTest, ExclusiveGrantWhenSoleSharer)
{
    hier.read(0, 0x60000);
    EXPECT_EQ(hier.l1(0).state(0x60000), Mesi::Exclusive);
}

TEST_F(HierarchyTest, SharedGrantWhenOthersHoldCopy)
{
    hier.read(0, 0x60000);
    hier.read(1, 0x60000);
    EXPECT_EQ(hier.l1(1).state(0x60000), Mesi::Shared);
    // The original exclusive owner was downgraded.
    EXPECT_EQ(hier.l1(0).state(0x60000), Mesi::Shared);
}

TEST_F(HierarchyTest, ReadAfterRemoteWriteSeesNewData)
{
    Block d1 = patternBlock(1);
    hier.write(0, 0x70000, &d1);
    EXPECT_EQ(hier.l1(0).state(0x70000), Mesi::Modified);

    Block out;
    auto res = hier.read(1, 0x70000, &out);
    EXPECT_EQ(out, d1);
    EXPECT_EQ(res.servedBy, ServedBy::L3);
    // Owner was downgraded and its dirty data recalled into L3.
    EXPECT_EQ(hier.l1(0).state(0x70000), Mesi::Shared);
    EXPECT_EQ(stats.value("hier.owner_writebacks"), 1u);
}

TEST_F(HierarchyTest, WriteInvalidatesSharers)
{
    hier.read(0, 0x80000);
    hier.read(1, 0x80000);
    Block d2 = patternBlock(2);
    hier.write(2, 0x80000, &d2);
    EXPECT_EQ(hier.l1(0).state(0x80000), Mesi::Invalid);
    EXPECT_EQ(hier.l1(1).state(0x80000), Mesi::Invalid);
    EXPECT_EQ(hier.l1(2).state(0x80000), Mesi::Modified);
    EXPECT_GE(stats.value("hier.sharer_invalidations"), 2u);

    Block out;
    hier.read(0, 0x80000, &out);
    EXPECT_EQ(out, d2);
}

TEST_F(HierarchyTest, L1EvictionWritesBackToL2)
{
    // Fill 9 blocks mapping to the same L1 set; L1 has 8 ways.
    Addr base = 0x100000;
    Block d = patternBlock(9);
    hier.write(0, base, &d);
    for (unsigned i = 1; i <= 8; ++i)
        hier.read(0, base + i * 4096);
    // base evicted from L1 but L2 (512 sets) still holds the dirty data.
    EXPECT_FALSE(hier.l1(0).contains(base));
    LineRef line = hier.l2(0).find(base);
    ASSERT_TRUE(line);
    EXPECT_EQ(hier.l2(0).peek(line), d);
}

TEST_F(HierarchyTest, DebugReadSeesNewestCopy)
{
    Block d = patternBlock(0x77);
    hier.write(0, 0x90000, &d);
    EXPECT_EQ(hier.debugRead(0x90000), d);
    // Memory still has the stale copy.
    EXPECT_EQ(hier.memory().readBlock(0x90000), zeroBlock());
}

TEST_F(HierarchyTest, FlushAllDrainsDirtyData)
{
    Block d = patternBlock(0x31);
    hier.write(0, 0xa0000, &d);
    hier.flushAll();
    EXPECT_FALSE(hier.l1(0).contains(0xa0000));
    EXPECT_FALSE(hier.l2(0).contains(0xa0000));
    EXPECT_EQ(hier.memory().readBlock(0xa0000), d);
    EXPECT_EQ(hier.debugRead(0xa0000), d);
}

TEST_F(HierarchyTest, FetchToL3WritesBackDirtyPrivateCopies)
{
    // Figure 6 scenario: B dirty in L2 (here: L1) must reach L3 before
    // the CC op runs there.
    Block d = patternBlock(0x55);
    hier.write(0, 0xb0000, &d);
    unsigned slice = hier.sliceFor(0, 0xb0000);

    Cycles lat = hier.fetchToLevel(0, 0xb0000, CacheLevel::L3,
                                   /*exclusive=*/false).latency;
    EXPECT_GT(lat, 0u);
    LineRef line = hier.l3Slice(slice).find(0xb0000);
    ASSERT_TRUE(line);
    EXPECT_EQ(hier.l3Slice(slice).peek(line), d);
    // Non-exclusive staging leaves the private copy (now clean/shared).
    EXPECT_NE(hier.l1(0).state(0xb0000), Mesi::Modified);
}

TEST_F(HierarchyTest, FetchToL3ExclusiveInvalidatesPrivateCopies)
{
    Block d = patternBlock(0x66);
    hier.write(0, 0xc0000, &d);
    hier.read(1, 0xc0000);

    hier.fetchToLevel(0, 0xc0000, CacheLevel::L3, /*exclusive=*/true);
    EXPECT_FALSE(hier.l1(0).contains(0xc0000));
    EXPECT_FALSE(hier.l2(0).contains(0xc0000));
    EXPECT_FALSE(hier.l1(1).contains(0xc0000));
    unsigned slice = hier.sliceFor(0, 0xc0000);
    LineRef line = hier.l3Slice(slice).find(0xc0000);
    ASSERT_TRUE(line);
    EXPECT_EQ(hier.l3Slice(slice).peek(line), d);
}

TEST_F(HierarchyTest, FetchToL3ForOverwriteSkipsMemory)
{
    std::uint64_t before = stats.value("hier.mem_reads");
    hier.fetchToLevel(0, 0xd0000, CacheLevel::L3, /*exclusive=*/true,
                      /*for_overwrite=*/true);
    EXPECT_EQ(stats.value("hier.mem_reads"), before);
    EXPECT_EQ(stats.value("hier.alloc_no_fetch"), 1u);
    unsigned slice = hier.sliceFor(0, 0xd0000);
    EXPECT_TRUE(hier.l3Slice(slice).contains(0xd0000));
}

TEST_F(HierarchyTest, FetchToL2StagesWithoutL1Fill)
{
    hier.fetchToLevel(0, 0xe0000, CacheLevel::L2, /*exclusive=*/false);
    EXPECT_TRUE(hier.l2(0).contains(0xe0000));
    EXPECT_FALSE(hier.l1(0).contains(0xe0000));
}

TEST_F(HierarchyTest, FetchToLevelReturnsTheStagedSlot)
{
    // Every level, shared and exclusive, through each path: a cold
    // stage, a repeat on the fast path, and (L3) a stage that recalls a
    // dirty private copy and one of a page homed on another slice.
    Block d = patternBlock(0x77);
    hier.write(1, 0x316000, &d);
    hier.write(1, 0x317000, &d);
    hier.mapPage(0x318000, 5);
    const struct
    {
        CacheLevel level;
        Addr addr;
        bool exclusive;
    } cases[] = {
        {CacheLevel::L1, 0x310000, false}, {CacheLevel::L1, 0x311000, true},
        {CacheLevel::L2, 0x312000, false}, {CacheLevel::L2, 0x313000, true},
        {CacheLevel::L3, 0x314000, false}, {CacheLevel::L3, 0x315000, true},
        {CacheLevel::L3, 0x316000, false}, {CacheLevel::L3, 0x317000, true},
        {CacheLevel::L3, 0x318000, false},
    };
    for (const auto &c : cases) {
        for (int pass = 0; pass < 2; ++pass) {
            StageResult s = hier.fetchToLevel(2, c.addr, c.level, c.exclusive);
            EXPECT_EQ(s.cacheIndex, c.level == CacheLevel::L3
                                        ? hier.sliceFor(2, c.addr)
                                        : 2u)
                << toString(c.level) << " 0x" << std::hex << c.addr;
            ASSERT_TRUE(s.line)
                << toString(c.level) << " 0x" << std::hex << c.addr;
            EXPECT_EQ(s.line,
                      hier.cacheInstance(c.level, s.cacheIndex).find(c.addr))
                << toString(c.level) << " 0x" << std::hex << c.addr;
            if (pass == 1) {
                EXPECT_EQ(s.latency, 0u) << toString(c.level);
            }
        }
    }
    EXPECT_EQ(hier.fetchToLevel(2, 0x318000, CacheLevel::L3, false)
                  .cacheIndex,
              5u);
}

TEST_F(HierarchyTest, FetchToLevelIntoFullyPinnedSetReturnsNoSlot)
{
    // A set full of pinned CC operands refuses the L1/L2 fill; the stage
    // then hands back no slot, so the controller retries or falls back.
    const struct
    {
        CacheLevel level;
        Addr base;
    } cases[] = {{CacheLevel::L1, 0x400000}, {CacheLevel::L2, 0x800000}};
    for (const auto &c : cases) {
        Cache &target = hier.cacheInstance(c.level, 0);
        const std::size_t ways = target.params().geometry.ways;
        const Addr stride = target.geom().numSets() * kBlockSize;
        for (std::size_t w = 0; w < ways; ++w) {
            StageResult s =
                hier.fetchToLevel(0, c.base + w * stride, c.level, false);
            ASSERT_TRUE(s.line) << toString(c.level) << " way " << w;
            target.pin(s.line);
        }
        for (bool exclusive : {false, true}) {
            const Addr extra = c.base + (ways + exclusive) * stride;
            StageResult s = hier.fetchToLevel(0, extra, c.level, exclusive);
            EXPECT_FALSE(s.line) << toString(c.level) << " exclusive "
                                 << exclusive;
            EXPECT_GT(s.latency, 0u);
            EXPECT_EQ(s.cacheIndex, 0u);
            EXPECT_FALSE(target.contains(extra));
        }
    }
}

TEST_F(HierarchyTest, ChooseLevelPolicy)
{
    // Operand A in L1, operand B uncached -> L3 (Section IV-E).
    hier.read(0, 0xf0000);
    EXPECT_EQ(hier.chooseLevel(0, {0xf0000, 0xf8000}), CacheLevel::L3);
    hier.read(0, 0xf8000);
    EXPECT_EQ(hier.chooseLevel(0, {0xf0000, 0xf8000}), CacheLevel::L1);
    // Present only in L2 + L3 after L2 staging.
    hier.fetchToLevel(0, 0x101000, CacheLevel::L2, false);
    EXPECT_EQ(hier.chooseLevel(0, {0xf0000, 0x101000}), CacheLevel::L2);
}

TEST_F(HierarchyTest, ByteGranularAccess)
{
    const char msg[] = "compute caches in place";
    hier.storeBytes(0, 0x12345, msg, sizeof(msg));
    char out[sizeof(msg)] = {};
    hier.loadBytes(1, 0x12345, out, sizeof(msg));
    EXPECT_STREQ(out, msg);
}

TEST_F(HierarchyTest, LatenciesAreOrderedByLevel)
{
    hier.read(0, 0x200000);                    // memory
    auto l1 = hier.read(0, 0x200000).latency;  // L1 hit

    hier.read(1, 0x201000);
    // Evict from L1 only: read 8 more conflicting blocks.
    for (unsigned i = 1; i <= 8; ++i)
        hier.read(1, 0x201000 + i * 4096);
    auto l2 = hier.read(1, 0x201000).latency;  // L2 hit

    Block dummy;
    hier.fetchToLevel(2, 0x202000, CacheLevel::L3, false);
    auto l3 = hier.read(2, 0x202000, &dummy).latency;  // L3 hit

    auto mem = hier.read(3, 0x900000).latency;  // cold miss

    EXPECT_LT(l1, l2);
    EXPECT_LT(l2, l3);
    EXPECT_LT(l3, mem);
}

// ---------------------------------------------------------------------
// Randomized coherence soak: many cores hammer a small address pool; the
// hierarchy's observable values must always match a flat reference model.
// ---------------------------------------------------------------------

TEST(HierarchySoak, MatchesFlatReferenceModel)
{
    energy::EnergyModel em;
    StatRegistry stats;
    HierarchyParams params;
    Hierarchy hier(params, &em, &stats);
    Rng rng(2024);

    // Small pool with deliberate set conflicts to force evictions.
    std::vector<Addr> pool;
    for (unsigned i = 0; i < 64; ++i)
        pool.push_back(0x300000 + i * 4096);  // same L1 set
    for (unsigned i = 0; i < 64; ++i)
        pool.push_back(0x300000 + i * 64);    // dense run

    std::map<Addr, Block> ref;
    for (int iter = 0; iter < 20000; ++iter) {
        CoreId core = static_cast<CoreId>(rng.below(params.cores));
        Addr addr = pool[rng.below(pool.size())];
        if (rng.chance(0.45)) {
            Block data;
            for (auto &byte : data)
                byte = static_cast<std::uint8_t>(rng.below(256));
            hier.write(core, addr, &data);
            ref[addr] = data;
        } else {
            Block out;
            hier.read(core, addr, &out);
            auto it = ref.find(addr);
            Block expect = it == ref.end() ? zeroBlock() : it->second;
            ASSERT_EQ(out, expect)
                << "iter " << iter << " core " << core << " addr 0x"
                << std::hex << addr;
        }
    }

    // After draining, memory must hold exactly the reference contents.
    hier.flushAll();
    for (const auto &[addr, data] : ref)
        ASSERT_EQ(hier.memory().readBlock(addr), data);
}

TEST(HierarchySoak, CoherenceWithCcStagingInterleaved)
{
    energy::EnergyModel em;
    StatRegistry stats;
    HierarchyParams params;
    Hierarchy hier(params, &em, &stats);
    Rng rng(777);

    std::vector<Addr> pool;
    for (unsigned i = 0; i < 32; ++i)
        pool.push_back(0x500000 + i * 4096);

    std::map<Addr, Block> ref;
    for (int iter = 0; iter < 5000; ++iter) {
        CoreId core = static_cast<CoreId>(rng.below(params.cores));
        Addr addr = pool[rng.below(pool.size())];
        double dice = rng.uniform();
        if (dice < 0.3) {
            Block data;
            for (auto &byte : data)
                byte = static_cast<std::uint8_t>(rng.below(256));
            hier.write(core, addr, &data);
            ref[addr] = data;
        } else if (dice < 0.6) {
            Block out;
            hier.read(core, addr, &out);
            auto it = ref.find(addr);
            ASSERT_EQ(out, it == ref.end() ? zeroBlock() : it->second);
        } else if (dice < 0.8) {
            hier.fetchToLevel(core, addr, CacheLevel::L3,
                              rng.chance(0.5));
            ASSERT_EQ(hier.debugRead(addr),
                      ref.count(addr) ? ref[addr] : zeroBlock());
        } else {
            hier.fetchToLevel(core, addr, CacheLevel::L2, false);
        }
    }
}

} // namespace
} // namespace ccache::cache
