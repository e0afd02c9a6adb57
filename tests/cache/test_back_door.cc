/**
 * @file
 * Tests for the hierarchy's functional back door: the range forms of
 * debugRead and debugWrite against a block-by-block model of what each
 * cached copy and memory hold, over unaligned ranges that cross pages,
 * mapped and unmapped pages, clean and dirty L3 lines, and private M
 * copies left by core stores.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "cache/hierarchy.hh"
#include "common/rng.hh"

namespace ccache::cache {
namespace {

constexpr Addr kBase = 0x700000;
constexpr std::size_t kPages = 6;
constexpr std::size_t kBytes = kPages * kPageSize;

/** Pages 1 and 4 are never touched by a core, so they stay unmapped. */
constexpr bool
unmappedPage(std::size_t page)
{
    return page == 1 || page == 4;
}

Block
randomBlock(Rng &rng)
{
    Block b;
    for (std::uint8_t &byte : b)
        byte = static_cast<std::uint8_t>(rng.below(256));
    return b;
}

class HierarchyBackDoor : public ::testing::Test
{
  protected:
    HierarchyBackDoor() : hier(HierarchyParams{}, &em, &stats), ref(kBytes)
    {
    }

    /** Newest value of the block at @p blk, from the flat model. */
    Block
    refBlock(Addr blk) const
    {
        Block b;
        std::memcpy(b.data(), ref.data() + (blk - kBase), kBlockSize);
        return b;
    }

    /** A core store: the model takes the new block too. */
    void
    store(CoreId core, Addr blk, const Block &data)
    {
        hier.write(core, blk, &data);
        std::memcpy(ref.data() + (blk - kBase), data.data(), kBlockSize);
    }

    /** The range [off, off + len) of the region reads as the model. */
    void
    expectReads(std::size_t off, std::size_t len)
    {
        std::vector<std::uint8_t> got(len);
        hier.debugRead(kBase + off, got.data(), len);
        ASSERT_TRUE(std::equal(got.begin(), got.end(), ref.begin() + off))
            << "debugRead(0x" << std::hex << kBase + off << ", " << std::dec
            << len << ")";
    }

    /** Every cached copy of @p blk, in any L1, L2 or L3 slice, holds
     *  @p want. */
    void
    expectEveryCopy(Addr blk, const Block &want)
    {
        auto check = [&](Cache &cache, const char *what, unsigned i) {
            if (LineRef line = cache.find(blk)) {
                EXPECT_EQ(cache.peek(line), want)
                    << what << i << " copy of 0x" << std::hex << blk;
            }
        };
        for (unsigned c = 0; c < Hierarchy::kCores; ++c) {
            check(hier.l1(c), "L1 of core ", c);
            check(hier.l2(c), "L2 of core ", c);
        }
        for (unsigned s = 0; s < noc::Ring::kNodes; ++s)
            check(hier.l3Slice(s), "L3 slice ", s);
    }

    energy::EnergyModel em;
    StatRegistry stats;
    Hierarchy hier;
    /** Flat model of the region: the newest value of every byte. */
    std::vector<std::uint8_t> ref;
};

TEST_F(HierarchyBackDoor, RangeFormsMatchBlockByBlockModel)
{
    Rng rng(0x6ac4d00);
    for (std::uint8_t &byte : ref)
        byte = static_cast<std::uint8_t>(rng.below(256));
    hier.memory().writeBytes(kBase, ref.data(), kBytes);

    // Give every block of the mapped pages one of five states.
    unsigned l3_clean = 0, l3_dirty = 0, private_m = 0;
    for (std::size_t page = 0; page < kPages; ++page) {
        if (unmappedPage(page))
            continue;
        for (std::size_t b = 0; b < kPageSize / kBlockSize; ++b) {
            const Addr blk = kBase + page * kPageSize + b * kBlockSize;
            const CoreId core = static_cast<CoreId>(rng.below(8));
            switch (b == 0 ? 1 : rng.below(5)) {
              case 0:   // memory only
                break;
              case 1:   // clean at L3
                hier.fetchToLevel(core, blk, CacheLevel::L3, false);
                ++l3_clean;
                break;
              case 2:   // dirty at L3: a core store written back
                store(core, blk, randomBlock(rng));
                hier.fetchToLevel((core + 1) % 8, blk, CacheLevel::L3, true);
                ++l3_dirty;
                break;
              case 3:   // a private M copy; L3 and memory are stale
                store(core, blk, randomBlock(rng));
                ++private_m;
                break;
              default:  // clean shared copies in two cores
                hier.read(core, blk);
                hier.read((core + 3) % 8, blk);
                break;
            }
        }
    }
    ASSERT_GT(l3_clean, 0u);
    ASSERT_GT(l3_dirty, 0u);
    ASSERT_GT(private_m, 0u);
    for (std::size_t page = 0; page < kPages; ++page) {
        EXPECT_EQ(hier.homeSliceIfMapped(kBase + page * kPageSize)
                      .has_value(),
                  !unmappedPage(page));
    }

    // Reads: the whole region, block by block, and unaligned ranges up
    // to three pages long.
    expectReads(0, kBytes);
    for (std::size_t off = 0; off < kBytes; off += kBlockSize)
        ASSERT_EQ(hier.debugRead(kBase + off), refBlock(kBase + off));
    for (int i = 0; i < 300; ++i) {
        const std::size_t off = rng.below(kBytes);
        const std::size_t len =
            1 + rng.below(std::min(kBytes - off, 3 * kPageSize));
        expectReads(off, len);
    }

    // Writes: memory takes the bytes, and every cached copy of a
    // touched block takes memory's new block, dirty lines included.
    // Core stores between writes leave fresh private M copies behind.
    std::vector<std::uint8_t> mem(kBytes);
    for (int i = 0; i < 60; ++i) {
        const std::size_t off = rng.below(kBytes);
        const std::size_t len =
            1 + rng.below(std::min(kBytes - off, 2 * kPageSize + 100));
        std::vector<std::uint8_t> data(len);
        for (std::uint8_t &byte : data)
            byte = static_cast<std::uint8_t>(rng.below(256));

        hier.memory().readBytes(kBase, mem.data(), kBytes);
        std::copy(data.begin(), data.end(), mem.begin() + off);
        hier.debugWrite(kBase + off, data.data(), len);

        std::vector<std::uint8_t> now(kBytes);
        hier.memory().readBytes(kBase, now.data(), kBytes);
        ASSERT_EQ(now, mem) << "write " << i;
        const std::size_t first = off / kBlockSize * kBlockSize;
        const std::size_t last = (off + len - 1) / kBlockSize * kBlockSize;
        for (std::size_t b = first; b <= last; b += kBlockSize) {
            std::copy_n(mem.begin() + b, kBlockSize, ref.begin() + b);
            expectEveryCopy(kBase + b, refBlock(kBase + b));
        }
        expectReads(first, last + kBlockSize - first);

        const std::size_t page = rng.below(kPages);
        if (!unmappedPage(page)) {
            const Addr blk =
                kBase + page * kPageSize + rng.below(64) * kBlockSize;
            store(static_cast<CoreId>(rng.below(8)), blk, randomBlock(rng));
        }
    }
    expectReads(0, kBytes);
    for (std::size_t page = 0; page < kPages; ++page) {
        EXPECT_EQ(hier.homeSliceIfMapped(kBase + page * kPageSize)
                      .has_value(),
                  !unmappedPage(page))
            << "debugWrite must not map page " << page;
    }

    // A zero-length range touches nothing, not even a dirty private
    // copy of the block it points into.
    const Addr dirty = kBase + 2 * kPageSize;
    store(5, dirty, randomBlock(rng));
    const std::uint8_t junk = 0xa5;
    hier.debugWrite(dirty + 0x14, &junk, 0);
    expectReads(dirty - kBase, kBlockSize);
    std::uint8_t untouched = junk;
    hier.debugRead(dirty + 0x14, &untouched, 0);
    EXPECT_EQ(untouched, junk);

    // Draining every copy leaves exactly the model in memory.
    hier.flushAll();
    std::vector<std::uint8_t> drained(kBytes);
    hier.memory().readBytes(kBase, drained.data(), kBytes);
    EXPECT_EQ(drained, ref);
}

} // namespace
} // namespace ccache::cache
