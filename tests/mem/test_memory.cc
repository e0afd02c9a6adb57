/**
 * @file
 * Unit tests for the sparse functional memory model.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "mem/memory.hh"

namespace ccache::mem {
namespace {

TEST(Memory, UntouchedReadsZero)
{
    Memory m;
    EXPECT_EQ(m.readBlock(0x1000), zeroBlock());
    EXPECT_EQ(m.touchedPages(), 0u);
}

TEST(Memory, BlockRoundTrip)
{
    Memory m;
    Block b;
    for (std::size_t i = 0; i < kBlockSize; ++i)
        b[i] = static_cast<std::uint8_t>(i * 3);
    m.writeBlock(0x4000, b);
    EXPECT_EQ(m.readBlock(0x4000), b);
    EXPECT_EQ(m.touchedPages(), 1u);
}

TEST(Memory, BytesAcrossPageBoundary)
{
    Memory m;
    std::vector<std::uint8_t> data(100);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i);
    Addr addr = 2 * kPageSize - 50;  // straddles a page boundary
    m.writeBytes(addr, data.data(), data.size());
    std::vector<std::uint8_t> out(100, 0xff);
    m.readBytes(addr, out.data(), out.size());
    EXPECT_EQ(out, data);
    EXPECT_EQ(m.touchedPages(), 2u);
}

TEST(Memory, WordHelpers)
{
    Memory m;
    const std::uint64_t word = 0xdeadbeefcafef00dULL;
    m.writeBytes(0x100, reinterpret_cast<const std::uint8_t *>(&word),
                 sizeof(word));
    EXPECT_EQ(m.readWord(0x100), word);
}

} // namespace
} // namespace ccache::mem
