/**
 * @file
 * Unit tests for a single cache level: tags, LRU, fills/evictions,
 * pinning, and geometry-mapped placement.
 */

#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "cache/cache.hh"
#include "common/rng.hh"

namespace ccache::cache {
namespace {

CacheParams
tinyParams()
{
    CacheParams p;
    p.geometry = geometry::CacheGeometryParams::l1d();
    p.level = CacheLevel::L1;
    return p;
}

Block
patternBlock(std::uint8_t seed)
{
    Block b;
    for (std::size_t i = 0; i < kBlockSize; ++i)
        b[i] = static_cast<std::uint8_t>(seed + i);
    return b;
}

class CacheTest : public ::testing::Test
{
  protected:
    CacheTest() : cache(tinyParams(), &em, &stats, "l1.0") {}

    /** The handle of resident line @p addr. Throws when the line is
     *  absent, so no test passes an empty handle on. */
    LineRef
    at(Addr addr) const
    {
        LineRef line = cache.find(addr);
        if (!line)
            throw std::logic_error("line not resident");
        return line;
    }

    energy::EnergyModel em;
    StatRegistry stats;
    Cache cache;
};

TEST_F(CacheTest, MissOnEmpty)
{
    EXPECT_FALSE(cache.contains(0x1000));
    EXPECT_FALSE(cache.find(0x1000));
    EXPECT_EQ(cache.state(0x1000), Mesi::Invalid);
    EXPECT_EQ(cache.dirtyPeek(0x1000), nullptr);
}

TEST_F(CacheTest, FillThenHit)
{
    Block data = patternBlock(1);
    auto fill = cache.fill(0x1000, data, Mesi::Exclusive);
    ASSERT_TRUE(fill);
    EXPECT_FALSE(fill->evicted);
    EXPECT_TRUE(cache.contains(0x1000));
    EXPECT_EQ(cache.state(0x1000), Mesi::Exclusive);
    EXPECT_EQ(at(0x1000), fill->line);
    Block out;
    cache.read(fill->line, out);
    EXPECT_EQ(out, data);
}

TEST_F(CacheTest, WriteMarksDirty)
{
    cache.fill(0x1000, patternBlock(1), Mesi::Exclusive);
    cache.write(at(0x1000), patternBlock(2));
    EXPECT_EQ(*cache.dirtyPeek(0x1000), patternBlock(2));
    auto ev = cache.invalidate(0x1000);
    ASSERT_TRUE(ev);
    EXPECT_TRUE(ev->dirty);
    EXPECT_EQ(ev->data, patternBlock(2));
}

TEST_F(CacheTest, LruEviction)
{
    // The L1 has 8 ways; fill 9 blocks of the same set and check the
    // first-touched one is evicted.
    std::size_t set_stride = 64u << 8;  // same set every 2^8 blocks (6+1+1)
    // Same set: addresses differing only above the set index bits.
    // L1 geometry: 64 sets, so set repeats every 64*64 = 4096 bytes.
    Addr base = 0x100000;
    for (unsigned i = 0; i < 8; ++i) {
        auto fill = cache.fill(base + i * 4096, patternBlock(i),
                               Mesi::Shared);
        ASSERT_TRUE(fill);
        EXPECT_FALSE(fill->evicted) << i;
    }
    // Touch block 0 so block 1 becomes LRU.
    Block out;
    cache.read(at(base), out);
    auto fill = cache.fill(base + 8 * 4096, patternBlock(9), Mesi::Shared);
    ASSERT_TRUE(fill);
    ASSERT_TRUE(fill->evicted);
    EXPECT_EQ(fill->evicted->addr, base + 1 * 4096);
    (void)set_stride;
}

TEST_F(CacheTest, PinnedLinesAreNotVictims)
{
    Addr base = 0x100000;
    for (unsigned i = 0; i < 8; ++i)
        cache.fill(base + i * 4096, patternBlock(i), Mesi::Shared);
    // Pin the LRU line (block 0).
    cache.pin(at(base));
    auto fill = cache.fill(base + 8 * 4096, patternBlock(9), Mesi::Shared);
    ASSERT_TRUE(fill);
    ASSERT_TRUE(fill->evicted);
    EXPECT_NE(fill->evicted->addr, base);  // pinned line survived
    EXPECT_TRUE(cache.isPinned(at(base)));
    cache.unpin(at(base));
    EXPECT_FALSE(cache.isPinned(at(base)));
}

TEST_F(CacheTest, AllPinnedBlocksFill)
{
    Addr base = 0x100000;
    for (unsigned i = 0; i < 8; ++i) {
        cache.fill(base + i * 4096, patternBlock(i), Mesi::Shared);
        cache.pin(at(base + i * 4096));
    }
    auto fill = cache.fill(base + 8 * 4096, patternBlock(9), Mesi::Shared);
    EXPECT_FALSE(fill.has_value());
    EXPECT_EQ(stats.value("l1.0.fill_blocked_pinned"), 1u);
}

TEST_F(CacheTest, RefillUpdatesInPlace)
{
    cache.fill(0x2000, patternBlock(3), Mesi::Shared);
    auto refill = cache.fill(0x2000, patternBlock(4), Mesi::Modified);
    ASSERT_TRUE(refill);
    EXPECT_FALSE(refill->evicted);
    EXPECT_EQ(refill->line, at(0x2000));
    EXPECT_EQ(cache.peek(refill->line), patternBlock(4));
    EXPECT_EQ(cache.state(0x2000), Mesi::Modified);
    EXPECT_EQ(stats.value("l1.0.fills"), 1u);
}

TEST_F(CacheTest, PeekPokeBypassEnergy)
{
    cache.fill(0x3000, patternBlock(5), Mesi::Exclusive);
    double before = em.dynamic().dynamicTotal();
    EXPECT_EQ(cache.peek(at(0x3000)), patternBlock(5));
    cache.poke(at(0x3000), patternBlock(6));
    EXPECT_DOUBLE_EQ(em.dynamic().dynamicTotal(), before);
    EXPECT_EQ(cache.peek(at(0x3000)), patternBlock(6));
}

TEST_F(CacheTest, EnergyChargedPerTableV)
{
    cache.fill(0x1000, patternBlock(1), Mesi::Exclusive);  // one write
    Block out;
    cache.read(at(0x1000), out);  // one read
    double expect =
        energy::cacheOpEnergy(CacheLevel::L1, energy::CacheOp::Write) +
        energy::cacheOpEnergy(CacheLevel::L1, energy::CacheOp::Read);
    EXPECT_DOUBLE_EQ(em.dynamic().l1Access + em.dynamic().l1Ic, expect);
}

TEST_F(CacheTest, MarkDirtyPromotesToModified)
{
    cache.fill(0x1000, patternBlock(1), Mesi::Exclusive);
    cache.markDirty(at(0x1000));
    EXPECT_EQ(cache.state(0x1000), Mesi::Modified);
    auto ev = cache.invalidate(0x1000);
    ASSERT_TRUE(ev);
    EXPECT_TRUE(ev->dirty);
}

TEST_F(CacheTest, PlaceOfResidentLine)
{
    cache.fill(0x1000, patternBlock(1), Mesi::Exclusive);
    auto expected = cache.geom().place(cache.geom().setIndex(0x1000), 0);
    EXPECT_EQ(cache.placeOf(at(0x1000)), expected);
}

TEST_F(CacheTest, ForEachLineAndAddrOf)
{
    cache.fill(0x1000, patternBlock(1), Mesi::Exclusive);
    cache.fill(0x2040, patternBlock(2), Mesi::Shared);
    cache.write(at(0x1000), patternBlock(7));
    std::vector<Addr> seen;
    cache.forEachLine([&](Addr addr, Mesi state, bool dirty,
                          const Block &data) {
        seen.push_back(addr);
        if (addr == 0x1000) {
            EXPECT_TRUE(dirty);
            EXPECT_EQ(data, patternBlock(7));
            EXPECT_EQ(state, Mesi::Exclusive);
        } else {
            EXPECT_EQ(addr, 0x2040u & ~Addr{63});
            EXPECT_FALSE(dirty);
        }
    });
    EXPECT_EQ(seen.size(), 2u);
}

TEST_F(CacheTest, HandleStopsValidatingAfterInvalidate)
{
    const Addr x = 0x1000;
    cache.fill(x, patternBlock(1), Mesi::Exclusive);
    LineRef line = cache.find(x);
    ASSERT_TRUE(line);
    EXPECT_EQ(cache.find(x, line), line);

    cache.invalidate(x);
    EXPECT_FALSE(cache.find(x, line));
    EXPECT_FALSE(cache.find(x));
    EXPECT_FALSE(LineRef());
}

TEST_F(CacheTest, HandleStopsValidatingAfterRefillIntoAnotherWay)
{
    // x fills way 0 of its set, seven more lines fill ways 1-7.
    auto blk = [](unsigned i) { return Addr{0x100000} + i * 4096; };
    const Addr x = blk(0);
    for (unsigned i = 0; i < 8; ++i)
        cache.fill(blk(i), patternBlock(i), Mesi::Shared);
    LineRef old = cache.find(x);
    ASSERT_TRUE(old);
    EXPECT_EQ(old.way(), 0u);

    // Evict x (the LRU line): its slot now holds blk(8), for which the
    // old handle validates.
    auto fill = cache.fill(blk(8), patternBlock(8), Mesi::Shared);
    ASSERT_TRUE(fill && fill->evicted);
    EXPECT_EQ(fill->evicted->addr, x);
    EXPECT_EQ(fill->line, old);
    EXPECT_FALSE(cache.find(x, old));
    EXPECT_EQ(cache.find(blk(8), old), old);

    // Refill x: it lands in the next LRU way, and only the address
    // lookup finds it there.
    auto refill = cache.fill(x, patternBlock(9), Mesi::Shared);
    ASSERT_TRUE(refill);
    EXPECT_NE(refill->line, old);
    LineRef found = cache.find(x);
    ASSERT_TRUE(found);
    EXPECT_EQ(found, refill->line);
    EXPECT_EQ(cache.find(x, old), found);
    EXPECT_EQ(cache.peek(found), patternBlock(9));
}

TEST(TagArray, VictimPrefersInvalid)
{
    TagArray tags(4, 2);
    auto v = tags.victim(0);
    ASSERT_TRUE(v);
    tags.install(0, *v, 1, Mesi::Shared);
    tags.touch(0, *v);
    auto v2 = tags.victim(0);
    ASSERT_TRUE(v2);
    EXPECT_NE(*v2, *v);
}

TEST(TagArray, AllPinnedNoVictim)
{
    TagArray tags(1, 2);
    for (std::size_t w = 0; w < 2; ++w) {
        tags.install(0, w, w, Mesi::Shared);
        tags.setPinned(0, w, true);
    }
    EXPECT_FALSE(tags.victim(0).has_value());
}

} // namespace
} // namespace ccache::cache
