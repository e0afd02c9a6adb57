/**
 * @file
 * Exact-output pin for the CC controller: a fixed instruction mix runs
 * under every controller configuration that changes the execution path
 * (level choice, forced L1/L2, forced near-place, circuit verification,
 * seeded faults, instruction streams), and one digest covers every
 * CcExecResult field of every instruction, the stats JSON dump, the
 * energy accumulators (bit patterns, so the order of the double-precision
 * charges counts) and the memory image the mix leaves.
 *
 * The recorded value is the controller's output before its two
 * execution paths were merged into one block-op pipeline, less three
 * always-zero counters and one retired configuration; a refactor that
 * keeps the simulated output byte-identical keeps this digest.
 * A deliberate model change must re-record it and say so.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "cache/hierarchy.hh"
#include "cc/cc_controller.hh"
#include "common/rng.hh"
#include "tests/digest.hh"

namespace ccache::cc {
namespace {

using test::Digest;

// Table II operands: two 8 KB sources, a key block and a 32 KB
// destination region every Table II op writes into.
constexpr Addr kSrcA = 0x100000;
constexpr Addr kSrcB = 0x104000;
constexpr Addr kKey = 0x108000;
constexpr Addr kDst = 0x110000;
constexpr std::size_t kDstBytes = 0x8000;

// Bit-serial operands: one page-aligned region per lane width, sources
// at its base, six destination stacks (one per op) behind them.
constexpr Addr kBitSerialBase = 0x1000000;
constexpr Addr kBitSerialRegion = 0x800000;
constexpr Addr kStackStride = 0x40000;
constexpr std::size_t kSliceBytes = 128;  // two lane groups
struct Width
{
    std::size_t bits;
    bool isSigned;
};
constexpr Width kWidths[] = {{8, false}, {13, true}};

// Lock-failure operands: all at page offset 0, the L1 set the fillers
// occupy and pin.
constexpr Addr kLockA = 0x3000000;
constexpr Addr kLockB = 0x3010000;
constexpr Addr kLockC = 0x3020000;
constexpr Addr kLockSliceA = 0x3100000;
constexpr Addr kLockSliceB = 0x3140000;
constexpr Addr kLockSliceD = 0x3180000;
constexpr Addr kFiller = 0x3800000;
constexpr unsigned kL1Ways = 8;

Addr
bitSerialStack(std::size_t width_index, std::size_t stack)
{
    return kBitSerialBase + width_index * kBitSerialRegion +
        stack * kStackStride;
}

void
loadOperands(cache::Hierarchy &hier)
{
    Rng rng(0xd16e57);
    std::vector<std::uint8_t> buf(0x4000);
    auto fill = [&](Addr addr, std::size_t len) {
        for (std::size_t i = 0; i < len; ++i)
            buf[i] = static_cast<std::uint8_t>(rng.below(256));
        hier.memory().writeBytes(addr, buf.data(), len);
    };
    fill(kSrcA, 0x2000);
    fill(kSrcB, 0x2000);
    // Equal first 256 bytes (cmp finds matching words) and the key is
    // a copy of src1 block 2 (search finds it).
    std::vector<std::uint8_t> a(0x200);
    for (std::size_t off = 0; off < a.size(); off += kBlockSize) {
        Block blk = hier.memory().readBlock(kSrcA + off);
        std::copy(blk.begin(), blk.end(), a.begin() + off);
    }
    hier.memory().writeBytes(kSrcB, a.data(), 0x100);
    hier.memory().writeBytes(kKey, a.data() + 2 * kBlockSize, kBlockSize);

    for (std::size_t wi = 0; wi < std::size(kWidths); ++wi) {
        for (std::size_t src = 0; src < 2; ++src)
            for (std::size_t k = 0; k < kWidths[wi].bits; ++k)
                fill(CcInstruction::sliceAddr(bitSerialStack(wi, src), k),
                     kSliceBytes);
    }
    fill(kLockA, 256);
    fill(kLockB, 256);
    for (std::size_t k = 0; k < 8; ++k) {
        fill(CcInstruction::sliceAddr(kLockSliceA, k), kBlockSize);
        fill(CcInstruction::sliceAddr(kLockSliceB, k), kBlockSize);
    }
}

/** Every opcode, clmul at three widths plus the replicated form, a
 *  page-spanning op, and bit-serial ops at two widths and signedness. */
std::vector<CcInstruction>
instructionMix()
{
    using I = CcInstruction;
    std::vector<I> m = {
        I::copy(kSrcA, kDst, 1024),
        I::buz(kDst + 0x400, 512),
        I::cmp(kSrcA, kSrcB, 512),
        I::search(kSrcA, kKey, 512),
        I::logicalAnd(kSrcA, kSrcB, kDst + 0x1000, 2048),
        I::logicalOr(kSrcA, kSrcB, kDst + 0x1800, 1024),
        I::logicalXor(kSrcA, kSrcB, kDst + 0x2000, 4096),
        I::logicalNot(kSrcA, kDst + 0x3000, 256),
        I::clmul(kSrcA, kSrcB, kDst + 0x4000, 1024, 64),
        I::clmul(kSrcA, kSrcB, kDst + 0x4400, 1024, 128),
        I::clmul(kSrcA, kSrcB, kDst + 0x4800, 1024, 256),
        I::clmulReplicated(kSrcA, kKey, kDst + 0x5000, 2048, 64),
        // Both sources and the destination cross a page boundary.
        I::logicalAnd(kSrcA + 2048, kSrcB + 2048, kDst + 0x6800, 4096),
        // Reads an earlier result back out of the hierarchy.
        I::copy(kDst + 0x1000, kDst + 0x7800, 512),
    };
    for (std::size_t wi = 0; wi < std::size(kWidths); ++wi) {
        const std::size_t w = kWidths[wi].bits;
        const bool s = kWidths[wi].isSigned;
        Addr a = bitSerialStack(wi, 0);
        Addr b = bitSerialStack(wi, 1);
        m.push_back(I::add(a, b, bitSerialStack(wi, 2), kSliceBytes, w));
        m.push_back(I::sub(bitSerialStack(wi, 2), b, bitSerialStack(wi, 3),
                           kSliceBytes, w));
        m.push_back(I::mul(a, b, bitSerialStack(wi, 4), kSliceBytes, w));
        m.push_back(I::cmpLt(a, b, bitSerialStack(wi, 5), kSliceBytes, w,
                             s));
        m.push_back(I::cmpGt(a, b, bitSerialStack(wi, 6), kSliceBytes, w,
                             s));
        m.push_back(I::cmpEq(a, b, bitSerialStack(wi, 7), kSliceBytes, w));
    }
    return m;
}

void
hashResult(Digest &dg, const CcExecResult &r)
{
    for (std::uint64_t v :
         {static_cast<std::uint64_t>(r.latency),
          static_cast<std::uint64_t>(r.fetchLatency),
          static_cast<std::uint64_t>(r.computeLatency), r.result,
          static_cast<std::uint64_t>(r.level),
          static_cast<std::uint64_t>(r.blockOps),
          static_cast<std::uint64_t>(r.inPlaceOps),
          static_cast<std::uint64_t>(r.nearPlaceOps),
          static_cast<std::uint64_t>(r.keyReplications),
          static_cast<std::uint64_t>(r.pageSplits),
          static_cast<std::uint64_t>(r.lockRetries),
          static_cast<std::uint64_t>(r.riscFallback),
          static_cast<std::uint64_t>(r.faultRetries),
          static_cast<std::uint64_t>(r.faultDegradedOps),
          static_cast<std::uint64_t>(r.faultRiscRecoveries)})
        dg.u64(v);
}

void
hashRange(Digest &dg, cache::Hierarchy &hier, Addr addr, std::size_t len)
{
    for (std::size_t off = 0; off < len; off += kBlockSize) {
        Block blk = hier.debugRead(addr + off);
        dg.bytes(blk.data(), blk.size());
    }
}

struct Config
{
    const char *name;
    CcControllerParams params;
    bool stream = false;
};

std::vector<Config>
configs()
{
    std::vector<Config> out;
    out.push_back({"default", {}});
    out.push_back({"force_l1", {}});
    out.back().params.forceLevel = CacheLevel::L1;
    out.push_back({"force_l2", {}});
    out.back().params.forceLevel = CacheLevel::L2;
    out.push_back({"near_place", {}});
    out.back().params.forceNearPlace = true;
    out.push_back({"verify_circuit", {}});
    out.back().params.verifyCircuit = true;
    out.push_back({"faults", {}});
    fault::FaultParams &f = out.back().params.faults;
    f.enabled = true;
    f.seed = 4242;
    f.transientPerBlockOp = 0.05;
    f.doubleBitFraction = 0.3;
    f.burstFraction = 0.05;
    f.marginFailPerDualRowOp = 0.05;
    f.stuckAtPerBlock = 0.05;
    f.stuckAtDoubleFraction = 0.8;
    f.backgroundUpsetPerInstr = 0.2;
    out.push_back({"stream", {}, true});
    return out;
}

/** Run the mix, then the two lock-failure instructions, under one
 *  configuration and fold everything observable into @p dg. */
std::vector<CcExecResult>
runConfig(const Config &cfg, Digest &dg)
{
    energy::EnergyModel em;
    StatRegistry stats;
    cache::Hierarchy hier(cache::HierarchyParams{}, &em, &stats);
    CcController ctrl(hier, &em, &stats, cfg.params);
    loadOperands(hier);

    std::vector<CcInstruction> mix = instructionMix();
    std::vector<CcExecResult> results;
    if (cfg.stream) {
        Cycles total = 0;
        results = ctrl.executeStream(0, mix, &total);
        dg.u64(total);
    } else {
        for (const CcInstruction &instr : mix)
            results.push_back(ctrl.execute(0, instr));
    }

    // Pin every way of L1 set 0 so staging there fails: under forced L1
    // both instructions take the lock-failure RISC fallback.
    for (unsigned i = 0; i < kL1Ways; ++i) {
        Addr filler = kFiller + i * kPageSize;
        hier.read(0, filler);
        hier.l1(0).pin(hier.l1(0).find(filler));
    }
    results.push_back(ctrl.execute(
        0, CcInstruction::logicalXor(kLockA, kLockB, kLockC, 256)));
    results.push_back(ctrl.execute(
        0, CcInstruction::add(kLockSliceA, kLockSliceB, kLockSliceD,
                              kBlockSize, 8)));
    for (unsigned i = 0; i < kL1Ways; ++i) {
        cache::LineRef line = hier.l1(0).find(kFiller + i * kPageSize);
        if (line)
            hier.l1(0).unpin(line);
    }

    dg.str(cfg.name);
    for (const CcExecResult &r : results)
        hashResult(dg, r);
    dg.str(stats.dumpJson().dump());
    const energy::EnergyBreakdown &e = em.dynamic();
    for (double v : {e.core, e.l1Access, e.l1Ic, e.l2Access, e.l2Ic,
                     e.l3Access, e.l3Ic, e.noc, e.dram})
        dg.f64(v);

    hashRange(dg, hier, kDst, kDstBytes);
    for (std::size_t wi = 0; wi < std::size(kWidths); ++wi)
        for (std::size_t stack = 2; stack < 8; ++stack)
            for (std::size_t k = 0; k < kWidths[wi].bits; ++k)
                hashRange(dg, hier,
                          CcInstruction::sliceAddr(
                              bitSerialStack(wi, stack), k),
                          kSliceBytes);
    hashRange(dg, hier, kLockC, 256);
    for (std::size_t k = 0; k < 8; ++k)
        hashRange(dg, hier, CcInstruction::sliceAddr(kLockSliceD, k),
                  kBlockSize);
    return results;
}

TEST(ControllerDigest, FixedMixMatchesRecordedDigest)
{
    // Recorded before the controller's two execution paths were merged,
    // then re-recorded only to drop the cc.instr_table_full,
    // cc.op_table_overflows and cc.reuse_hoists counters and the
    // reuse_predictor configuration; every other input is unchanged.
    constexpr std::uint64_t kRecorded = 0x6ba45e5104cc9d86ULL;

    const std::vector<CcInstruction> mix = instructionMix();
    Digest all;
    for (const Config &cfg : configs()) {
        Digest dg;
        std::vector<CcExecResult> res = runConfig(cfg, dg);
        std::printf("  %-16s %016llx\n", cfg.name,
                    static_cast<unsigned long long>(dg.h));
        all.u64(dg.h);

        if (cfg.params.forceLevel == CacheLevel::L1) {
            // The mix really reaches the lock-failure fallback of both
            // op classes.
            EXPECT_TRUE(res[mix.size()].riscFallback);
            EXPECT_TRUE(res[mix.size() + 1].riscFallback);
        }
        if (cfg.params.faults.enabled) {
            // ... and the fault ladder's last two rungs in both classes.
            std::size_t degraded[2] = {0, 0};
            std::size_t recovered[2] = {0, 0};
            for (std::size_t i = 0; i < mix.size(); ++i) {
                std::size_t cls = isBitSerial(mix[i].op) ? 1 : 0;
                degraded[cls] += res[i].faultDegradedOps;
                recovered[cls] += res[i].faultRiscRecoveries;
            }
            EXPECT_GT(degraded[0], 0u);
            EXPECT_GT(degraded[1], 0u);
            EXPECT_GT(recovered[0], 0u);
            EXPECT_GT(recovered[1], 0u);
        }
    }
    std::printf("  digest           %016llx\n",
                static_cast<unsigned long long>(all.h));
    EXPECT_EQ(all.h, kRecorded);
}

} // namespace
} // namespace ccache::cc
