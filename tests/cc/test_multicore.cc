/**
 * @file
 * Multi-core integration tests: Compute Cache operations interacting
 * with MESI coherence across cores (Section IV-F: CC must not introduce
 * new race conditions) and the DRF-style usage the consistency model
 * assumes (Section IV-G).
 */

#include <gtest/gtest.h>

#include "cache/hierarchy.hh"
#include "cc/cc_controller.hh"
#include "common/rng.hh"

namespace ccache::cc {
namespace {

class MultiCoreTest : public ::testing::Test
{
  protected:
    MultiCoreTest()
        : hier(cache::HierarchyParams{}, &em, &stats),
          ctrl(hier, &em, &stats)
    {
    }

    Block
    pattern(std::uint8_t seed)
    {
        Block b;
        for (std::size_t i = 0; i < kBlockSize; ++i)
            b[i] = static_cast<std::uint8_t>(seed + i * 3);
        return b;
    }

    energy::EnergyModel em;
    StatRegistry stats;
    cache::Hierarchy hier;
    CcController ctrl;
};

TEST_F(MultiCoreTest, ProducerCcConsumerLoad)
{
    // Core 0 produces with a CC copy; core 1 consumes with loads
    // (release/acquire around it in a DRF program). The consumer must
    // see the CC result.
    Block src = pattern(0x11);
    hier.write(0, 0x10000, &src);

    ctrl.execute(0, CcInstruction::copy(0x10000, 0x20000, 64));

    Block out;
    hier.read(1, 0x20000, &out);
    EXPECT_EQ(out, src);
}

TEST_F(MultiCoreTest, ScalarProducerCcConsumer)
{
    // Core 1 stores, core 0 then runs a CC cmp: the staging writebacks
    // (Figure 6) must make the fresh data visible to the in-place op.
    Block a = pattern(0x22);
    hier.write(1, 0x30000, &a);
    hier.write(1, 0x38000, &a);
    ASSERT_EQ(hier.l1(1).state(0x30000), cache::Mesi::Modified);

    auto res = ctrl.execute(0, CcInstruction::cmp(0x30000, 0x38000, 64));
    EXPECT_EQ(res.result & 0xff, 0xffu);

    Block b = pattern(0x23);
    hier.write(1, 0x38000, &b);
    res = ctrl.execute(0, CcInstruction::cmp(0x30000, 0x38000, 64));
    EXPECT_NE(res.result & 0xff, 0xffu);
}

TEST_F(MultiCoreTest, CcWriteInvalidatesRemoteReaders)
{
    Block a = pattern(0x44);
    hier.write(0, 0x40000, &a);
    // Cores 1..3 cache the destination.
    for (CoreId c = 1; c <= 3; ++c)
        hier.read(c, 0x48000);

    ctrl.execute(0, CcInstruction::copy(0x40000, 0x48000, 64));

    for (CoreId c = 1; c <= 3; ++c) {
        EXPECT_FALSE(hier.l1(c).contains(0x48000)) << "core " << c;
        Block out;
        hier.read(c, 0x48000, &out);
        EXPECT_EQ(out, a) << "core " << c;
    }
}

TEST_F(MultiCoreTest, DistinctCoresComputeOnDistinctData)
{
    // Two cores run CC ops on disjoint pages; results are independent
    // and both correct (the controller serves all cores).
    Block a0 = pattern(0x10), a1 = pattern(0x77);
    hier.write(0, 0x50000, &a0);
    hier.write(1, 0x60000, &a1);

    ctrl.execute(0, CcInstruction::logicalNot(0x50000, 0x58000, 64));
    ctrl.execute(1, CcInstruction::logicalNot(0x60000, 0x68000, 64));

    Block e0, e1;
    for (std::size_t i = 0; i < kBlockSize; ++i) {
        e0[i] = static_cast<std::uint8_t>(~a0[i]);
        e1[i] = static_cast<std::uint8_t>(~a1[i]);
    }
    EXPECT_EQ(hier.debugRead(0x58000), e0);
    EXPECT_EQ(hier.debugRead(0x68000), e1);
}

TEST_F(MultiCoreTest, SharedSourceStaysCoherentAcrossCcUsers)
{
    // Both cores use the same source operand for CC ops; the source must
    // remain readable and unmodified throughout.
    Block src = pattern(0x3c);
    hier.write(2, 0x70000, &src);

    ctrl.execute(0, CcInstruction::copy(0x70000, 0x78000, 64));
    ctrl.execute(1, CcInstruction::copy(0x70000, 0x79000, 64));

    EXPECT_EQ(hier.debugRead(0x70000), src);
    EXPECT_EQ(hier.debugRead(0x78000), src);
    EXPECT_EQ(hier.debugRead(0x79000), src);
}

TEST_F(MultiCoreTest, RandomizedMultiCoreCcSoak)
{
    // Cores interleave CC copies/xors and scalar accesses over a shared
    // pool; a flat reference model checks every read. Exercises staging
    // writebacks, invalidation, pinning and unpinning under contention.
    Rng rng(31337);
    std::vector<Addr> pool;
    for (unsigned i = 0; i < 16; ++i)
        pool.push_back(0x100000 + i * kPageSize);

    std::vector<Block> ref(pool.size(), zeroBlock());
    auto idx = [&](Addr a) {
        return (a - 0x100000) / kPageSize;
    };

    for (int iter = 0; iter < 1500; ++iter) {
        CoreId core = static_cast<CoreId>(rng.below(4));
        Addr a = pool[rng.below(pool.size())];
        Addr b = pool[rng.below(pool.size())];
        switch (rng.below(4)) {
          case 0: {
            Block data;
            for (auto &byte : data)
                byte = static_cast<std::uint8_t>(rng.below(256));
            hier.write(core, a, &data);
            ref[idx(a)] = data;
            break;
          }
          case 1: {
            Block out;
            hier.read(core, a, &out);
            ASSERT_EQ(out, ref[idx(a)]) << "iter " << iter;
            break;
          }
          case 2: {
            if (a == b)
                break;
            ctrl.execute(core, CcInstruction::copy(a, b, kBlockSize));
            ref[idx(b)] = ref[idx(a)];
            break;
          }
          case 3: {
            if (a == b)
                break;
            ctrl.execute(core,
                         CcInstruction::logicalXor(a, b, b, kBlockSize));
            for (std::size_t i = 0; i < kBlockSize; ++i)
                ref[idx(b)][i] =
                    static_cast<std::uint8_t>(ref[idx(a)][i] ^
                                              ref[idx(b)][i]);
            break;
          }
        }
    }

    for (std::size_t i = 0; i < pool.size(); ++i)
        ASSERT_EQ(hier.debugRead(pool[i]), ref[i]) << "page " << i;
}

} // namespace
} // namespace ccache::cc
