/**
 * @file
 * Unit tests for the MESI coherence directory.
 */

#include <gtest/gtest.h>

#include "cache/directory.hh"

namespace ccache::cache {
namespace {

TEST(DirectoryTest, EmptyEntryForUntracked)
{
    Directory dir;
    DirEntry e = dir.entry(0x1000);
    EXPECT_EQ(e.sharers, 0u);
    EXPECT_FALSE(e.owner.has_value());
    EXPECT_FALSE(e.hasSharers());
    EXPECT_EQ(dir.trackedBlocks(), 0u);
}

TEST(DirectoryTest, AddSharers)
{
    Directory dir;
    dir.addSharer(0x1000, 2);
    dir.addSharer(0x1000, 5);
    DirEntry e = dir.entry(0x1000);
    EXPECT_EQ(e.sharers, (1u << 2) | (1u << 5));
    EXPECT_FALSE(e.owner.has_value());
}

TEST(DirectoryTest, SetOwnerClearsOtherSharers)
{
    Directory dir;
    dir.addSharer(0x1000, 1);
    dir.addSharer(0x1000, 2);
    dir.setOwner(0x1000, 3);
    DirEntry e = dir.entry(0x1000);
    EXPECT_EQ(e.sharers, 1u << 3);
    ASSERT_TRUE(e.owner.has_value());
    EXPECT_EQ(*e.owner, 3u);
}

TEST(DirectoryTest, AddSharerDowngradesForeignOwner)
{
    Directory dir;
    dir.setOwner(0x2000, 4);
    dir.addSharer(0x2000, 6);
    DirEntry e = dir.entry(0x2000);
    // The former owner remains a sharer, but exclusivity is gone.
    EXPECT_FALSE(e.owner.has_value());
    EXPECT_EQ(e.sharers, (1u << 4) | (1u << 6));
}

TEST(DirectoryTest, DowngradeOwnerKeepsSharerBit)
{
    Directory dir;
    dir.setOwner(0x3000, 2);
    dir.downgradeOwner(0x3000);
    DirEntry e = dir.entry(0x3000);
    EXPECT_FALSE(e.owner.has_value());
    EXPECT_EQ(e.sharers, 1u << 2);
}

TEST(DirectoryTest, RemoveSharerDropsEntryWhenEmpty)
{
    Directory dir;
    dir.addSharer(0x4000, 0);
    dir.addSharer(0x4000, 1);
    dir.removeSharer(0x4000, 0);
    EXPECT_EQ(dir.entry(0x4000).sharers, 1u << 1);
    dir.removeSharer(0x4000, 1);
    EXPECT_EQ(dir.trackedBlocks(), 0u);
}

TEST(DirectoryTest, RemoveOwnerClearsOwnership)
{
    Directory dir;
    dir.setOwner(0x5000, 7);
    dir.removeSharer(0x5000, 7);
    EXPECT_FALSE(dir.entry(0x5000).owner.has_value());
}

TEST(DirectoryTest, SharersExcept)
{
    Directory dir;
    dir.addSharer(0x6000, 0);
    dir.addSharer(0x6000, 3);
    dir.addSharer(0x6000, 7);
    EXPECT_EQ(dir.sharersExcept(0x6000, 3), (1u << 0) | (1u << 7));
    EXPECT_EQ(dir.sharersExcept(0x6000, 1),
              (1u << 0) | (1u << 3) | (1u << 7));
    EXPECT_EQ(dir.sharersExcept(0x9999, 0), 0u);
}

TEST(DirectoryTest, ClearDropsAllState)
{
    Directory dir;
    dir.setOwner(0x7000, 1);
    dir.clear(0x7000);
    EXPECT_EQ(dir.entry(0x7000).sharers, 0u);
    EXPECT_EQ(dir.trackedBlocks(), 0u);
}

} // namespace
} // namespace ccache::cache
