/**
 * @file
 * Integration tests for the CC controller: functional correctness of
 * every Table II instruction through the real hierarchy, level selection,
 * operand locality / near-place fallback, key replication, scheduling
 * parallelism, page-split exceptions and RISC fallback.
 */

#include <gtest/gtest.h>

#include <set>

#include "cache/hierarchy.hh"
#include "cc/cc_controller.hh"
#include "cc/near_place_unit.hh"
#include "common/rng.hh"

namespace ccache::cc {
namespace {

class ControllerTest : public ::testing::Test
{
  protected:
    ControllerTest()
        : hier(cache::HierarchyParams{}, &em, &stats),
          ctrl(hier, &em, &stats, makeParams())
    {
    }

    static CcControllerParams
    makeParams()
    {
        CcControllerParams p;
        p.verifyCircuit = true;  // cross-check against the circuit model
        return p;
    }

    /** Load @p len random bytes at @p addr into memory. */
    std::vector<std::uint8_t>
    loadRandom(Addr addr, std::size_t len)
    {
        std::vector<std::uint8_t> data(len);
        for (auto &b : data)
            b = static_cast<std::uint8_t>(rng.below(256));
        hier.memory().writeBytes(addr, data.data(), len);
        return data;
    }

    std::vector<std::uint8_t>
    dumpBytes(Addr addr, std::size_t len)
    {
        std::vector<std::uint8_t> out(len);
        for (std::size_t off = 0; off < len; off += kBlockSize) {
            Block b = hier.debugRead(addr + off);
            std::size_t n = std::min(kBlockSize, len - off);
            std::copy_n(b.begin(), n, out.begin() + off);
        }
        return out;
    }

    energy::EnergyModel em;
    StatRegistry stats;
    cache::Hierarchy hier;
    CcController ctrl;
    Rng rng{123};
};

TEST_F(ControllerTest, CopyMovesData)
{
    auto src = loadRandom(0x10000, 4096);
    auto res = ctrl.execute(0, CcInstruction::copy(0x10000, 0x20000, 4096));
    EXPECT_EQ(res.blockOps, 64u);
    EXPECT_EQ(res.inPlaceOps, 64u);
    EXPECT_EQ(res.nearPlaceOps, 0u);
    EXPECT_FALSE(res.riscFallback);
    EXPECT_EQ(dumpBytes(0x20000, 4096), src);
}

TEST_F(ControllerTest, BuzZeroes)
{
    loadRandom(0x30000, 1024);
    ctrl.execute(0, CcInstruction::buz(0x30000, 1024));
    EXPECT_EQ(dumpBytes(0x30000, 1024),
              std::vector<std::uint8_t>(1024, 0));
}

TEST_F(ControllerTest, LogicalOpsMatchReference)
{
    auto a = loadRandom(0x40000, 2048);
    auto b = loadRandom(0x50000, 2048);

    ctrl.execute(0, CcInstruction::logicalAnd(0x40000, 0x50000, 0x60000,
                                              2048));
    ctrl.execute(0, CcInstruction::logicalOr(0x40000, 0x50000, 0x68000,
                                             2048));
    ctrl.execute(0, CcInstruction::logicalXor(0x40000, 0x50000, 0x70000,
                                              2048));
    ctrl.execute(0, CcInstruction::logicalNot(0x40000, 0x78000, 2048));

    auto andv = dumpBytes(0x60000, 2048);
    auto orv = dumpBytes(0x68000, 2048);
    auto xorv = dumpBytes(0x70000, 2048);
    auto notv = dumpBytes(0x78000, 2048);
    for (std::size_t i = 0; i < 2048; ++i) {
        EXPECT_EQ(andv[i], a[i] & b[i]);
        EXPECT_EQ(orv[i], a[i] | b[i]);
        EXPECT_EQ(xorv[i], a[i] ^ b[i]);
        EXPECT_EQ(notv[i], static_cast<std::uint8_t>(~a[i]));
    }
    EXPECT_GT(stats.value("cc.circuit_verifications"), 0u);
}

TEST_F(ControllerTest, SourcesSurviveLogicalOps)
{
    auto a = loadRandom(0x40000, 512);
    auto b = loadRandom(0x50000, 512);
    ctrl.execute(0, CcInstruction::logicalAnd(0x40000, 0x50000, 0x60000,
                                              512));
    EXPECT_EQ(dumpBytes(0x40000, 512), a);
    EXPECT_EQ(dumpBytes(0x50000, 512), b);
}

TEST_F(ControllerTest, CmpProducesWordMask)
{
    auto a = loadRandom(0x80000, 512);
    auto b = a;
    // Perturb words 3 and 40.
    b[3 * 8] ^= 1;
    b[40 * 8 + 7] ^= 0x80;
    hier.memory().writeBytes(0x90000, b.data(), b.size());

    auto res = ctrl.execute(0, CcInstruction::cmp(0x80000, 0x90000, 512));
    std::uint64_t expect = ~((std::uint64_t{1} << 3) |
                             (std::uint64_t{1} << 40));
    EXPECT_EQ(res.result, expect);
}

TEST_F(ControllerTest, SearchFindsKeyAndReplicatesOncePerPartition)
{
    // Data: 8 blocks; key equals block 5.
    const Addr base = 0xa0000;
    auto data = loadRandom(base, 512);
    std::vector<std::uint8_t> key(data.begin() + 5 * 64,
                                  data.begin() + 6 * 64);
    hier.memory().writeBytes(0xb0000, key.data(), key.size());
    const CcInstruction search = CcInstruction::search(base, 0xb0000, 512);

    // Distinct (cache, block partition) pairs holding the data at
    // @p level: the key is written once into each, and again by the
    // next search.
    auto data_partitions = [&](CacheLevel level) {
        std::set<std::pair<unsigned, std::size_t>> parts;
        for (Addr a = base; a < base + 512; a += kBlockSize) {
            unsigned index =
                level == CacheLevel::L3 ? hier.sliceFor(0, a) : 0u;
            cache::Cache &c = hier.cacheInstance(level, index);
            cache::LineRef line = c.find(a);
            EXPECT_TRUE(line) << std::hex << a;
            if (line)
                parts.emplace(index, c.placeOf(line).globalPartition);
        }
        return parts.size();
    };

    // Two identical searches at @p level; returns the partition count.
    auto check = [&](CacheLevel level) {
        std::size_t partitions = 0;
        for (int pass = 0; pass < 2; ++pass) {
            auto res = ctrl.execute(0, search);
            // Word-granular mask: block 5's eight words all match the key.
            EXPECT_EQ(res.result >> (5 * 8) & 0xff, 0xffu);
            EXPECT_EQ(res.level, level);
            EXPECT_EQ(res.inPlaceOps, 8u);
            partitions = data_partitions(level);
            EXPECT_EQ(res.keyReplications, partitions)
                << toString(level) << " pass " << pass;
        }
        return partitions;
    };
    // Uncached data computes at L3, each block in its own partition.
    EXPECT_EQ(check(CacheLevel::L3), 8u);
    // In the L1 the eight blocks share partitions: replication dedupes.
    ctrl.mutableParams().forceLevel = CacheLevel::L1;
    EXPECT_LT(check(CacheLevel::L1), 8u);
}

TEST_F(ControllerTest, ClmulComputesCarrylessParities)
{
    auto a = loadRandom(0xc0000, 256);
    auto b = loadRandom(0xd0000, 256);
    ctrl.execute(0,
                 CcInstruction::clmul(0xc0000, 0xd0000, 0xe0000, 256, 64));
    auto out = dumpBytes(0xe0000, 256);
    for (std::size_t blk = 0; blk < 4; ++blk) {
        std::uint64_t packed = 0;
        std::memcpy(&packed, out.data() + blk * 64, 8);
        for (std::size_t w = 0; w < 8; ++w) {
            std::uint64_t wa = 0, wb = 0;
            std::memcpy(&wa, a.data() + blk * 64 + w * 8, 8);
            std::memcpy(&wb, b.data() + blk * 64 + w * 8, 8);
            bool parity = std::popcount(wa & wb) & 1;
            EXPECT_EQ((packed >> w) & 1, static_cast<std::uint64_t>(parity))
                << "block " << blk << " word " << w;
        }
    }
}

TEST_F(ControllerTest, LevelSelectionPrefersHighestResident)
{
    loadRandom(0xf0000, 512);
    loadRandom(0xf8000, 512);
    // Warm both operands into L1 (page-aligned offsets guarantee operand
    // locality at L1 too).
    for (Addr off = 0; off < 512; off += 64) {
        hier.read(0, 0xf0000 + off);
        hier.read(0, 0xf8000 + off);
    }
    auto res = ctrl.execute(0, CcInstruction::cmp(0xf0000, 0xf8000, 512));
    EXPECT_EQ(res.level, CacheLevel::L1);

    // Cold operands -> L3 (Section IV-E policy).
    auto res2 =
        ctrl.execute(0, CcInstruction::cmp(0x110000, 0x118000, 512));
    EXPECT_EQ(res2.level, CacheLevel::L3);
}

TEST_F(ControllerTest, ForceLevelOverrides)
{
    ctrl.mutableParams().forceLevel = CacheLevel::L2;
    loadRandom(0x120000, 1024);
    auto res =
        ctrl.execute(0, CcInstruction::copy(0x120000, 0x128000, 1024));
    EXPECT_EQ(res.level, CacheLevel::L2);
    EXPECT_TRUE(hier.l2(0).contains(0x120000));
    EXPECT_FALSE(hier.l1(0).contains(0x120000));
}

TEST_F(ControllerTest, PageMisalignedOperandsGoNearPlace)
{
    // Source and destination at different page offsets: no operand
    // locality; the controller must use the near-place unit and still be
    // functionally correct.
    auto src = loadRandom(0x130000, 1024);
    auto res =
        ctrl.execute(0, CcInstruction::copy(0x130000, 0x140800, 1024));
    EXPECT_EQ(res.nearPlaceOps, 16u);
    EXPECT_EQ(res.inPlaceOps, 0u);
    EXPECT_EQ(dumpBytes(0x140800, 1024), src);
}

TEST_F(ControllerTest, ForceNearPlace)
{
    ctrl.mutableParams().forceNearPlace = true;
    loadRandom(0x150000, 512);
    auto res =
        ctrl.execute(0, CcInstruction::copy(0x150000, 0x158000, 512));
    EXPECT_EQ(res.nearPlaceOps, 8u);
    EXPECT_EQ(res.inPlaceOps, 0u);
}

TEST_F(ControllerTest, InPlaceBeatsNearPlaceLatency)
{
    loadRandom(0x160000, 4096);
    loadRandom(0x170000, 4096);
    auto in_place =
        ctrl.execute(0, CcInstruction::copy(0x160000, 0x168000, 4096));

    CcControllerParams np = makeParams();
    np.forceNearPlace = true;
    CcController near_ctrl(hier, &em, &stats, np);
    auto near_place =
        near_ctrl.execute(0, CcInstruction::copy(0x170000, 0x178000,
                                                 4096));
    // Section IV-J: in-place parallelism dwarfs the single logic unit.
    EXPECT_LT(in_place.computeLatency, near_place.computeLatency);
    EXPECT_GE(static_cast<double>(near_place.computeLatency) /
                  static_cast<double>(in_place.computeLatency),
              4.0);
}

TEST_F(ControllerTest, NearPlaceEnergyStaysAtItsLevel)
{
    // Near-place ops at L1 on L1-resident operands: the L1 controller's
    // logic unit books its datapath energy to l1-access, so nothing
    // reaches the L3. One Table II op (the near-place unit) and one
    // 2-bit bit-serial add (the controller's word-serial path).
    ctrl.mutableParams().forceLevel = CacheLevel::L1;
    ctrl.mutableParams().forceNearPlace = true;
    const Addr a = 0x200000, b = 0x208000, d = 0x210000;
    const struct
    {
        const char *name;
        CcInstruction instr;
    } cases[] = {
        {"and", CcInstruction::logicalAnd(a, b, d, kBlockSize)},
        {"add", CcInstruction::add(a, b, d, kBlockSize, 2)},
    };
    for (const auto &c : cases) {
        for (Addr base : {a, b, d}) {
            std::size_t rows =
                isBitSerial(c.instr.op) ? c.instr.sliceCount(base) : 1;
            for (std::size_t k = 0; k < rows; ++k) {
                Addr row = CcInstruction::sliceAddr(base, k);
                loadRandom(row, kBlockSize);
                hier.read(0, row);
            }
        }
        em.reset();
        auto res = ctrl.execute(0, c.instr);
        ASSERT_EQ(res.level, CacheLevel::L1) << c.name;
        ASSERT_EQ(res.nearPlaceOps, 1u) << c.name;
        ASSERT_FALSE(res.riscFallback) << c.name;
        const auto &dyn = em.dynamic();
        EXPECT_EQ(dyn.l3Access, 0.0) << c.name;
        EXPECT_EQ(dyn.l3Ic, 0.0) << c.name;
        EXPECT_GT(dyn.l1Access, energy::kNearPlaceLogicPerBlock) << c.name;
    }
}

TEST_F(ControllerTest, LatencyIsIssuePlusFetchPlusComputePlusNotify)
{
    // latency = issue + fetch + compute + notify for a fault-free,
    // single-page, non-streamed op. Only an L3 op notifies across the
    // ring: the computing slice sends one Control message to the
    // issuing core's stop. The pages live on slice 5, four hops from
    // core 1.
    const CoreId core = 1;
    const unsigned slice = 5;
    for (CacheLevel level :
         {CacheLevel::L1, CacheLevel::L2, CacheLevel::L3}) {
        const Addr base = 0x300000 + static_cast<Addr>(level) * 0x10000;
        const Addr a = base, b = base + 0x4000, d = base + 0x8000;
        for (Addr page : {a, b, d})
            hier.mapPage(page, slice);
        loadRandom(a, 512);
        loadRandom(b, 512);
        ctrl.mutableParams().forceLevel = level;
        auto res =
            ctrl.execute(core, CcInstruction::logicalAnd(a, b, d, 512));
        ASSERT_EQ(res.level, level);
        ASSERT_FALSE(res.riscFallback);
        ASSERT_EQ(res.pageSplits, 0u);
        ASSERT_GT(res.fetchLatency, 0u);  // cold operands were staged

        Cycles notify = 0;
        if (level == CacheLevel::L3) {
            noc::Ring ring(nullptr, nullptr);
            notify = ring.send(slice, core, noc::MsgClass::Control);
            EXPECT_EQ(notify, 4 * noc::Ring::kHopLatency + 1);
        }
        EXPECT_EQ(res.latency - res.fetchLatency - res.computeLatency,
                  CcController::kIssueLatency + notify)
            << toString(level);
    }
}

TEST_F(ControllerTest, ParallelismScalesWithPartitions)
{
    // 64 blocks spread over all 64 L3 partitions: completion must be far
    // below 64 serial op latencies.
    loadRandom(0x180000, 4096);
    auto res =
        ctrl.execute(0, CcInstruction::copy(0x180000, 0x188000, 4096));
    Cycles serial = 64 * inPlaceLatency(CacheLevel::L3);
    EXPECT_LT(res.computeLatency, serial / 4);
    EXPECT_GT(res.fetchLatency, 0u);  // operands were cold
}

TEST_F(ControllerTest, PowerCapThrottlesParallelism)
{
    loadRandom(0x190000, 4096);
    auto wide =
        ctrl.execute(0, CcInstruction::copy(0x190000, 0x198000, 4096));

    CcControllerParams capped = makeParams();
    capped.maxActiveSubarrays = 4;
    CcController capped_ctrl(hier, &em, &stats, capped);
    auto narrow = capped_ctrl.execute(
        0, CcInstruction::copy(0x190000, 0x198000, 4096));
    EXPECT_GT(narrow.computeLatency, wide.computeLatency);
}

/** A controller forced to L3 under peak-power cap @p cap, with every
 *  block of each copy's source warmed and of its dest staged for
 *  overwrite there, so only the compute schedule varies with the cap. */
struct WarmedL3
{
    WarmedL3(unsigned cap, const std::vector<CcInstruction> &copies)
        : hier(cache::HierarchyParams{}, &em, &stats),
          ctrl(hier, &em, &stats, params(cap))
    {
        for (const CcInstruction &c : copies) {
            for (Addr off = 0; off < c.size; off += kBlockSize) {
                hier.fetchToLevel(0, c.src1 + off, CacheLevel::L3, false);
                hier.fetchToLevel(0, c.dest + off, CacheLevel::L3, true,
                                  true);
            }
        }
    }

    static CcControllerParams
    params(unsigned cap)
    {
        CcControllerParams p;
        p.maxActiveSubarrays = cap;
        p.forceLevel = CacheLevel::L3;
        return p;
    }

    energy::EnergyModel em;
    StatRegistry stats;
    cache::Hierarchy hier;
    CcController ctrl;
};

// Exact cycle counts under the power cap, pinned so that a tie-break or
// cap-boundary slip in the power-slot schedule fails here; the
// PowerCapSweep monotonicity check would pass it. The values are the
// schedule's at the time the test was written; change them only with a
// deliberate change to the schedule.
TEST(ControllerPowerCap, WarmedL3CopyComputeLatencyPerCap)
{
    const CcInstruction copy = CcInstruction::copy(0x100000, 0x110000, 8192);
    const std::pair<unsigned, Cycles> expected[] = {
        {1, 1794}, {2, 900}, {4, 456}, {8, 240}, {128, 156}, {0, 156}};
    for (const auto &[cap, want] : expected) {
        WarmedL3 sys(cap, {copy});
        CcExecResult res = sys.ctrl.execute(0, copy);
        EXPECT_EQ(res.inPlaceOps, 128u) << "cap " << cap;
        EXPECT_EQ(res.computeLatency, want) << "cap " << cap;
    }
}

TEST(ControllerPowerCap, StreamOfThreeCopiesTotalPerCap)
{
    const std::vector<CcInstruction> copies = {
        CcInstruction::copy(0x100000, 0x110000, 4096),
        CcInstruction::copy(0x120000, 0x130000, 4096),
        CcInstruction::copy(0x140000, 0x150000, 4096)};
    // 192 ops: at cap 128 the last 64 each reuse the earliest-free slot.
    const std::pair<unsigned, Cycles> expected[] = {{4, 684}, {128, 222}};
    for (const auto &[cap, want] : expected) {
        WarmedL3 sys(cap, copies);
        Cycles total = 0;
        sys.ctrl.executeStream(0, copies, &total);
        EXPECT_EQ(total, want) << "cap " << cap;
    }
}

TEST_F(ControllerTest, PageSpanningRaisesSplitException)
{
    auto src = loadRandom(0x1a0800, 4096);
    auto res =
        ctrl.execute(0, CcInstruction::copy(0x1a0800, 0x1b0800, 4096));
    EXPECT_EQ(res.pageSplits, 2u);
    EXPECT_EQ(stats.value("cc.page_split_exceptions"), 1u);
    EXPECT_EQ(dumpBytes(0x1b0800, 4096), src);
}

TEST_F(ControllerTest, CmpAcrossPageSplitConcatenatesResult)
{
    auto a = loadRandom(0x1c0fc0, 512);  // spans a page boundary
    hier.memory().writeBytes(0x1d0fc0, a.data(), a.size());
    auto res = ctrl.execute(0, CcInstruction::cmp(0x1c0fc0, 0x1d0fc0, 512));
    EXPECT_EQ(res.result, ~std::uint64_t{0});
    EXPECT_EQ(res.pageSplits, 2u);
}

TEST_F(ControllerTest, DirtyPrivateDataReachesL3BeforeCompute)
{
    // Figure 6: operand B dirty in a private cache; the CC op at L3 must
    // see the fresh value.
    Block fresh;
    for (std::size_t i = 0; i < kBlockSize; ++i)
        fresh[i] = static_cast<std::uint8_t>(i ^ 0x5a);
    hier.write(0, 0x1e0000, &fresh);
    ASSERT_EQ(hier.l1(0).state(0x1e0000), cache::Mesi::Modified);

    ctrl.mutableParams().forceLevel = CacheLevel::L3;
    ctrl.execute(0, CcInstruction::copy(0x1e0000, 0x1f0000, 64));
    EXPECT_EQ(hier.debugRead(0x1f0000), fresh);
}

TEST_F(ControllerTest, CcWriteInvalidatesStaleCopiesEverywhere)
{
    // Core 1 caches the destination; a CC write at L3 must invalidate it.
    loadRandom(0x200000, 64);
    loadRandom(0x208000, 64);
    hier.read(1, 0x208000);
    ASSERT_TRUE(hier.l1(1).contains(0x208000));

    ctrl.mutableParams().forceLevel = CacheLevel::L3;
    ctrl.execute(0, CcInstruction::copy(0x200000, 0x208000, 64));
    EXPECT_FALSE(hier.l1(1).contains(0x208000));
    EXPECT_FALSE(hier.l2(1).contains(0x208000));
    // Core 1 re-reads and sees the copied data.
    Block out;
    hier.read(1, 0x208000, &out);
    EXPECT_EQ(out, hier.debugRead(0x200000));
}

TEST_F(ControllerTest, RiscFallbackWhenOperandsCannotBePinned)
{
    // Pin every way of the destination's L1 set with other lines, then
    // force an L1-level op: staging cannot pin, so after two retries the
    // controller falls back to RISC execution (Section IV-E).
    ctrl.mutableParams().forceLevel = CacheLevel::L1;
    Addr dest = 0x210000;
    for (unsigned i = 1; i <= 8; ++i) {
        Addr filler = dest + i * 4096;  // same L1 set
        hier.read(0, filler);
        cache::LineRef line = hier.l1(0).find(filler);
        ASSERT_TRUE(line);
        hier.l1(0).pin(line);
    }
    auto src = loadRandom(0x219040, 64);  // different set for the source

    auto res = ctrl.execute(0, CcInstruction::copy(0x219040, dest, 64));
    EXPECT_TRUE(res.riscFallback);
    EXPECT_GT(stats.value("cc.risc_fallbacks"), 0u);
    // Functionally still correct.
    EXPECT_EQ(dumpBytes(dest, 64), src);
}

TEST_F(ControllerTest, StatsAccounting)
{
    loadRandom(0x220000, 1024);
    ctrl.execute(0, CcInstruction::copy(0x220000, 0x228000, 1024));
    EXPECT_EQ(stats.value("cc.instructions"), 1u);
    EXPECT_EQ(stats.value("cc.block_ops"), 16u);
    EXPECT_EQ(stats.value("cc.in_place_ops"), 16u);
    EXPECT_EQ(stats.value("cc.level_L3"), 1u);
}

TEST_F(ControllerTest, OperandsUnpinnedAfterCompletion)
{
    loadRandom(0x230000, 512);
    ctrl.execute(0, CcInstruction::copy(0x230000, 0x238000, 512));
    for (Addr off = 0; off < 512; off += 64) {
        for (Addr a : {0x230000 + off, 0x238000 + off}) {
            cache::Cache &l3 = hier.l3Slice(hier.sliceFor(0, a));
            cache::LineRef line = l3.find(a);
            EXPECT_FALSE(line && l3.isPinned(line)) << std::hex << a;
        }
    }
}

// Randomized functional soak across all opcodes and levels.
TEST_F(ControllerTest, RandomizedFunctionalSoak)
{
    for (int iter = 0; iter < 60; ++iter) {
        std::size_t blocks = 1 + rng.below(16);
        std::size_t size = blocks * kBlockSize;
        Addr base = 0x400000 + iter * 0x40000;
        Addr a = base, b = base + 0x10000, d = base + 0x20000;
        auto va = loadRandom(a, size);
        auto vb = loadRandom(b, size);

        switch (rng.below(5)) {
          case 0: {
            ctrl.execute(0, CcInstruction::logicalAnd(a, b, d, size));
            auto out = dumpBytes(d, size);
            for (std::size_t i = 0; i < size; ++i)
                ASSERT_EQ(out[i], va[i] & vb[i]);
            break;
          }
          case 1: {
            ctrl.execute(0, CcInstruction::logicalXor(a, b, d, size));
            auto out = dumpBytes(d, size);
            for (std::size_t i = 0; i < size; ++i)
                ASSERT_EQ(out[i], va[i] ^ vb[i]);
            break;
          }
          case 2: {
            ctrl.execute(0, CcInstruction::copy(a, d, size));
            ASSERT_EQ(dumpBytes(d, size), va);
            break;
          }
          case 3: {
            ctrl.execute(0, CcInstruction::buz(a, size));
            ASSERT_EQ(dumpBytes(a, size),
                      std::vector<std::uint8_t>(size, 0));
            break;
          }
          case 4: {
            std::size_t csize = std::min<std::size_t>(size, 512);
            auto res = ctrl.execute(0, CcInstruction::cmp(a, b, csize));
            for (std::size_t w = 0; w < csize / 8; ++w) {
                bool eq = std::equal(va.begin() + w * 8,
                                     va.begin() + (w + 1) * 8,
                                     vb.begin() + w * 8);
                ASSERT_EQ((res.result >> w) & 1,
                          static_cast<std::uint64_t>(eq));
            }
            break;
          }
        }
    }
}

} // namespace
} // namespace ccache::cc
