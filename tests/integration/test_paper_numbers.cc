/**
 * @file
 * The numbers the simulator transcribes from the paper, typed here
 * from Table IV, Section IV-J and Section VI-B rather than read back
 * from the code. Tables I and V (energy) are pinned the same way in
 * tests/energy/test_energy.cc.
 */

#include <gtest/gtest.h>

#include "apps/bmm.hh"
#include "apps/checkpoint.hh"
#include "apps/dbbitmap.hh"
#include "apps/wordcount.hh"
#include "cache/hierarchy.hh"
#include "cc/cc_controller.hh"
#include "cc/near_place_unit.hh"
#include "mem/memory.hh"
#include "noc/ring.hh"

namespace ccache {
namespace {

TEST(PaperNumbers, TableIVLatencies)
{
    // L1-D 5 cycles, L2 11, L3 11 plus queuing.
    EXPECT_EQ(cache::accessLatency(CacheLevel::L1), 5u);
    EXPECT_EQ(cache::accessLatency(CacheLevel::L2), 11u);
    EXPECT_EQ(cache::accessLatency(CacheLevel::L3), 11u);
    EXPECT_GT(cache::Hierarchy::kL3QueueDelay, 0u);
    // Ring: 3-cycle hop latency, 256-bit links.
    EXPECT_EQ(noc::Ring::kHopLatency, 3u);
    EXPECT_EQ(noc::Ring::kLinkBytes * 8, 256u);
    // Main memory: 120 cycles.
    EXPECT_EQ(mem::Memory::kAccessLatency, 120u);
}

TEST(PaperNumbers, TableIVMachineShape)
{
    // An 8-core CMP with 8 L3 slices, one core and one slice per stop.
    EXPECT_EQ(cache::Hierarchy::kCores, 8u);
    EXPECT_EQ(noc::Ring::kNodes, 8u);
}

TEST(PaperNumbers, SectionVIBApplicationParameters)
{
    // WordCount: 1 KB CAM buckets of 64-byte entries.
    EXPECT_EQ(apps::WordCount::kBucketEntries, 16u);
    EXPECT_EQ(apps::WordCount::kBucketEntries * kBlockSize, 1024u);
    // DB-BitMap: 2 KB chunks per CC operation.
    EXPECT_EQ(apps::DbBitmap::kChunkBytes, 2048u);
    // BMM computes at L1.
    EXPECT_EQ(apps::Bmm::kCcLevel, CacheLevel::L1);
    // Checkpointing: an interval of 100k application instructions.
    EXPECT_EQ(apps::Checkpoint::kIntervalInstructions, 100000u);
}

TEST(PaperNumbers, SectionIVJOpLatencies)
{
    // An L3 op takes 14 cycles in place and 22 near place.
    EXPECT_EQ(cc::inPlaceLatency(CacheLevel::L3), 14u);
    EXPECT_EQ(cc::nearPlaceLatency(CacheLevel::L3), 22u);
}

} // namespace
} // namespace ccache
