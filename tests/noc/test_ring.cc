/**
 * @file
 * Unit tests for the ring interconnect model.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "noc/ring.hh"

namespace ccache::noc {
namespace {

TEST(Ring, ShortestPathDistance)
{
    Ring ring(RingParams{}, nullptr, nullptr);
    EXPECT_EQ(ring.distance(0, 0), 0u);
    EXPECT_EQ(ring.distance(0, 1), 1u);
    EXPECT_EQ(ring.distance(0, 4), 4u);   // antipodal on 8 nodes
    EXPECT_EQ(ring.distance(0, 7), 1u);   // wraps the short way
    EXPECT_EQ(ring.distance(6, 1), 3u);
    EXPECT_EQ(ring.distance(3, 3), 0u);
}

TEST(Ring, LocalSliceStillCrossesRingInterface)
{
    // Even the core's local slice sits behind its ring stop, so local
    // L3 traffic pays one hop: 72 bytes are 9 flits, serialized in
    // ceil(72/32) = 3 cycles.
    Ring ring(RingParams{}, nullptr, nullptr);
    EXPECT_EQ(ring.send(2, 2, MsgClass::Data), 3u + 3u);
    EXPECT_EQ(ring.flitHops(), 9u);
}

TEST(Ring, LatencyIsHopsTimesLatencyPlusSerialization)
{
    Ring ring(RingParams{}, nullptr, nullptr);  // hopLatency=3, linkBytes=32
    // Control: 8 bytes -> 1 cycle serialization.
    EXPECT_EQ(ring.send(0, 2, MsgClass::Control), 2u * 3u + 1u);
    // Data: 72 bytes -> ceil(72/32)=3 cycles serialization.
    EXPECT_EQ(ring.send(0, 1, MsgClass::Data), 3u + 3u);
}

TEST(Ring, ChargesEnergyPerFlitHop)
{
    energy::EnergyModel em;
    StatRegistry stats;
    Ring ring(RingParams{}, &em, &stats);
    ring.send(0, 2, MsgClass::Data);  // 72B = 9 flits, 2 hops
    double expected = em.params().nocPerFlitHop * 9 * 2;
    EXPECT_DOUBLE_EQ(em.dynamic().noc, expected);
    EXPECT_EQ(stats.value("noc.flit_hops"), 18u);
    EXPECT_EQ(ring.flitHops(), 18u);
}

TEST(Ring, MessageBytes)
{
    EXPECT_EQ(messageBytes(MsgClass::Control), 8u);
    EXPECT_EQ(messageBytes(MsgClass::Data), 72u);
}

TEST(Ring, RejectsEmptyRing)
{
    RingParams p;
    p.nodes = 0;
    EXPECT_THROW((void)Ring(p, nullptr, nullptr), FatalError);
}

TEST(Ring, RejectsZeroLinkWidth)
{
    // Serialization divides by the link width.
    RingParams p;
    p.linkBytes = 0;
    EXPECT_THROW((void)Ring(p, nullptr, nullptr), FatalError);
}

} // namespace
} // namespace ccache::noc
