/**
 * @file
 * The timing numbers the simulator transcribes from the paper, typed
 * here from Table IV and Section IV-J rather than read back from the
 * code. Tables I and V (energy) are pinned the same way in
 * tests/energy/test_energy.cc.
 */

#include <gtest/gtest.h>

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

TEST(PaperNumbers, SectionIVJOpLatencies)
{
    // An L3 op takes 14 cycles in place and 22 near place.
    EXPECT_EQ(cc::inPlaceLatency(CacheLevel::L3), 14u);
    EXPECT_EQ(cc::nearPlaceLatency(CacheLevel::L3), 22u);
}

} // namespace
} // namespace ccache
