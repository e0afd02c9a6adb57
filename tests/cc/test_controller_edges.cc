/**
 * @file
 * Controller edge cases: cross-slice operands (near-place fallback at
 * L3), RISC-fallback result correctness for CC-R, staging races,
 * odd vector sizes through the engines and replicated-clmul
 * bookkeeping.
 */

#include <gtest/gtest.h>

#include "cache/hierarchy.hh"
#include "cc/cc_controller.hh"
#include "common/rng.hh"
#include "sim/system.hh"

namespace ccache::cc {
namespace {

TEST(ControllerEdges, CrossSliceOperandsFallToNearPlace)
{
    energy::EnergyModel em;
    StatRegistry stats;
    cache::Hierarchy hier(cache::HierarchyParams{}, &em, &stats);
    CcController ctrl(hier, &em, &stats);

    // Same page offsets, but the pages are pinned to different NUCA
    // slices: the blocks cannot share bit-lines, so the op must execute
    // near-place (and still be correct).
    hier.mapPage(0x100000, 0);
    hier.mapPage(0x200000, 3);
    hier.mapPage(0x300000, 0);

    Block a, b;
    for (std::size_t i = 0; i < kBlockSize; ++i) {
        a[i] = static_cast<std::uint8_t>(i);
        b[i] = static_cast<std::uint8_t>(0x33 + i);
    }
    hier.memory().writeBlock(0x100000, a);
    hier.memory().writeBlock(0x200000, b);

    auto res = ctrl.execute(
        0, CcInstruction::logicalAnd(0x100000, 0x200000, 0x300000, 64));
    EXPECT_EQ(res.nearPlaceOps, 1u);
    EXPECT_EQ(res.inPlaceOps, 0u);

    Block expect;
    for (std::size_t i = 0; i < kBlockSize; ++i)
        expect[i] = a[i] & b[i];
    EXPECT_EQ(hier.debugRead(0x300000), expect);
}

TEST(ControllerEdges, RiscFallbackCmpMaskCorrect)
{
    energy::EnergyModel em;
    StatRegistry stats;
    cache::Hierarchy hier(cache::HierarchyParams{}, &em, &stats);
    CcControllerParams p;
    p.forceLevel = CacheLevel::L1;
    CcController ctrl(hier, &em, &stats, p);

    // Pin the operands' L1 set so staging fails and the cmp runs as
    // RISC loads + compares.
    const Addr a = 0x400000, b = 0x409040;
    for (unsigned i = 1; i <= 8; ++i) {
        Addr filler = a + i * 4096;
        hier.read(0, filler);
        cache::LineRef line = hier.l1(0).find(filler);
        ASSERT_TRUE(line);
        hier.l1(0).pin(line);
    }

    Block da, db;
    for (std::size_t i = 0; i < kBlockSize; ++i)
        da[i] = db[i] = static_cast<std::uint8_t>(i * 5);
    db[16] ^= 0xff;  // word 2 differs
    hier.memory().writeBlock(a, da);
    hier.memory().writeBlock(b, db);

    auto res = ctrl.execute(0, CcInstruction::cmp(a, b, 64));
    EXPECT_TRUE(res.riscFallback);
    EXPECT_EQ(res.result & 0xff, 0xffu & ~(1u << 2));
}

TEST(ControllerEdges, ReplicatedClmulRiscFallbackPacksLikeInPlace)
{
    // BMM's clmul with a replicated source: when staging fails, the RISC
    // translation must read the one replicated block and pack each op's
    // parities into the packed destination, leaving the image the
    // in-cache run leaves and writing nothing past the packed blocks.
    const Addr src = 0x400000, key = 0x420000, dst = 0x440000;
    const std::size_t n = 1024;  // 16 ops x 8 parities: one dest block
    const std::size_t span = 4096;

    auto run = [&](bool pin_source_set) {
        energy::EnergyModel em;
        StatRegistry stats;
        cache::Hierarchy hier(cache::HierarchyParams{}, &em, &stats);
        CcControllerParams p;
        p.forceLevel = CacheLevel::L1;
        CcController ctrl(hier, &em, &stats, p);

        Rng rng(0xb33);
        std::vector<std::uint8_t> data(n + kBlockSize);
        for (auto &x : data)
            x = static_cast<std::uint8_t>(rng.below(256));
        hier.memory().writeBytes(src, data.data(), n);
        hier.memory().writeBytes(key, data.data() + n, kBlockSize);
        std::vector<std::uint8_t> old(span, 0xa5);
        hier.memory().writeBytes(dst, old.data(), span);

        if (pin_source_set) {
            // Every way of the first source block's L1 set is pinned.
            for (unsigned i = 1; i <= 8; ++i) {
                Addr filler = src + i * 4096;
                hier.read(0, filler);
                cache::LineRef line = hier.l1(0).find(filler);
                EXPECT_TRUE(line);
                if (line)
                    hier.l1(0).pin(line);
            }
        }
        auto res = ctrl.execute(
            0, CcInstruction::clmulReplicated(src, key, dst, n, 64));
        EXPECT_EQ(res.riscFallback, pin_source_set);

        std::vector<std::uint8_t> image;
        for (std::size_t off = 0; off < span; off += kBlockSize) {
            Block blk = hier.debugRead(dst + off);
            image.insert(image.end(), blk.begin(), blk.end());
        }
        return image;
    };

    std::vector<std::uint8_t> in_place = run(false);
    std::vector<std::uint8_t> fallback = run(true);
    EXPECT_EQ(fallback, in_place);
    EXPECT_EQ(std::vector<std::uint8_t>(fallback.begin() + kBlockSize,
                                        fallback.end()),
              std::vector<std::uint8_t>(span - kBlockSize, 0xa5));
}

TEST(ControllerEdges, StagingRaceKeepsResultsExact)
{
    // Operands staged at L1 over a one-set, 8-way L2: the ninth row's L2
    // fill evicts the L2 copy of an earlier row, and inclusion
    // back-invalidates that row's pinned L1 copy before the op issues
    // (Section IV-E's lock window). Lost as op 0's anchor, the
    // instruction is abandoned to the RISC fallback; with the first
    // source's L2 copy pinned, op 0's src2 row is lost instead, and the
    // op goes near-place and re-fetches through the hierarchy. Either
    // way the result must be exact.
    const Addr s1 = 0x100000, s2 = 0x200000, dst = 0x300000;
    const std::size_t n = 3 * kBlockSize;   // three ops, nine rows

    auto run = [&](bool pin_first_source) {
        energy::EnergyModel em;
        StatRegistry stats;
        cache::HierarchyParams hp;
        hp.l2.geometry.sizeBytes = hp.l2.geometry.ways * kBlockSize;
        hp.l2.geometry.banks = 1;
        hp.l2.geometry.blockPartitionsPerBank = 1;
        hp.l2.geometry.blocksPerRow = 1;
        cache::Hierarchy hier(hp, &em, &stats);
        CcControllerParams p;
        p.forceLevel = CacheLevel::L1;
        CcController ctrl(hier, &em, &stats, p);

        Rng rng(0x5ace);
        std::vector<std::uint8_t> a(n), b(n);
        for (std::size_t i = 0; i < n; ++i) {
            a[i] = static_cast<std::uint8_t>(rng.below(256));
            b[i] = static_cast<std::uint8_t>(rng.below(256));
        }
        std::vector<std::uint8_t> old(n, 0x5a);
        hier.memory().writeBytes(s1, a.data(), n);
        hier.memory().writeBytes(s2, b.data(), n);
        hier.memory().writeBytes(dst, old.data(), n);
        if (pin_first_source) {
            hier.read(0, s1);
            cache::LineRef line = hier.l2(0).find(s1);
            ASSERT_TRUE(line);
            hier.l2(0).pin(line);
        }

        auto res =
            ctrl.execute(0, CcInstruction::logicalAnd(s1, s2, dst, n));
        EXPECT_GT(stats.value("cc.staging_races"), 0u);
        EXPECT_EQ(res.riscFallback, !pin_first_source);
        if (pin_first_source) {
            EXPECT_GT(stats.value("cc.operand_refetches"), 0u);
        }

        auto dump = [&](Addr base) {
            std::vector<std::uint8_t> bytes;
            for (std::size_t off = 0; off < n; off += kBlockSize) {
                Block blk = hier.debugRead(base + off);
                bytes.insert(bytes.end(), blk.begin(), blk.end());
            }
            return bytes;
        };
        std::vector<std::uint8_t> expect(n);
        for (std::size_t i = 0; i < n; ++i)
            expect[i] = a[i] & b[i];
        EXPECT_EQ(dump(dst), expect);
        EXPECT_EQ(dump(s1), a);
        EXPECT_EQ(dump(s2), b);
        // Nothing the instruction pinned stays pinned.
        for (std::size_t off = 0; off < n; off += kBlockSize) {
            for (Addr base : {s1, s2, dst}) {
                cache::LineRef line = hier.l1(0).find(base + off);
                EXPECT_FALSE(line && hier.l1(0).isPinned(line))
                    << std::hex << base + off;
            }
        }
    };
    run(false);
    run(true);
}

TEST(ControllerEdges, ReplicatedClmulDisassemblesAndValidates)
{
    auto instr = CcInstruction::clmulReplicated(0x1000, 0x2000, 0x3000,
                                                4096, 256);
    EXPECT_TRUE(instr.src2Replicated);
    EXPECT_EQ(instr.clmulBitsPerBlock(), 2u);
    EXPECT_NO_THROW(instr.validate());
    // The replicated block and packed dest never span pages here.
    EXPECT_FALSE(instr.spansPage());
}

TEST(ControllerEdges, EngineHandlesNonChunkMultipleSizes)
{
    sim::System sys;
    const std::size_t n = 4096 + 512 + 64;  // not a chunk multiple
    std::vector<std::uint8_t> data(n);
    for (std::size_t i = 0; i < n; ++i)
        data[i] = static_cast<std::uint8_t>(i * 11);
    sys.load(0x500000, data.data(), n);

    sys.ccEngine().copy(0, 0x500000, 0x600000, n);
    EXPECT_EQ(sys.dump(0x600000, n), data);

    auto cmp = sys.ccEngine().compare(0, 0x500000, 0x600000, n);
    EXPECT_EQ(cmp.value, 1u);
}

TEST(ControllerEdges, StreamWithSingleInstructionMatchesExecute)
{
    sim::System a_sys, b_sys;
    std::vector<std::uint8_t> data(1024, 0x42);
    a_sys.load(0x100000, data.data(), data.size());
    b_sys.load(0x100000, data.data(), data.size());

    auto instr = CcInstruction::copy(0x100000, 0x200000, 1024);
    auto single = a_sys.cc().execute(0, instr);

    Cycles stream_total = 0;
    auto rs = b_sys.cc().executeStream(0, {instr}, &stream_total);
    ASSERT_EQ(rs.size(), 1u);
    EXPECT_EQ(rs[0].blockOps, single.blockOps);
    // The stream total and the single latency agree to within the
    // notification constant.
    EXPECT_NEAR(static_cast<double>(stream_total),
                static_cast<double>(single.latency), 16.0);
}

TEST(ControllerEdges, BuzOnColdDestinationSkipsMemoryFetch)
{
    sim::System sys;
    std::uint64_t before = sys.stats().value("hier.mem_reads");
    sys.cc().execute(0, CcInstruction::buz(0x700000, 4096));
    // The destination is fully overwritten: Figure 6's "need not be
    // fetched from memory" optimization.
    EXPECT_EQ(sys.stats().value("hier.mem_reads"), before);
    EXPECT_EQ(sys.dump(0x700000, 4096),
              std::vector<std::uint8_t>(4096, 0));
}

TEST(ControllerEdges, LockRetryCounterVisible)
{
    // Retries surface in stats when staging has to re-fetch.
    sim::System sys;
    auto &hier = sys.hierarchy();
    CcControllerParams p;
    p.forceLevel = CacheLevel::L1;
    CcController ctrl(hier, &sys.energy(), &sys.stats(), p);

    const Addr dest = 0x210000;
    for (unsigned i = 1; i <= 8; ++i) {
        Addr filler = dest + i * 4096;
        hier.read(0, filler);
        hier.l1(0).pin(hier.l1(0).find(filler));
    }
    ctrl.execute(0, CcInstruction::buz(dest, 64));
    EXPECT_GT(sys.stats().value("cc.lock_retries"), 0u);
    EXPECT_GT(sys.stats().value("cc.risc_fallbacks"), 0u);
}

} // namespace
} // namespace ccache::cc
