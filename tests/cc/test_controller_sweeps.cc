/**
 * @file
 * Parameterized sweeps over CC controller and geometry configurations:
 * functional correctness and the expected monotonic cost relations must
 * hold across the whole parameter space, not just the defaults.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "cache/hierarchy.hh"
#include "cc/cc_controller.hh"
#include "common/rng.hh"

namespace ccache::cc {
namespace {

/** (forced level, vector bytes, opcode selector) */
using SweepParam = std::tuple<CacheLevel, std::size_t, int>;

class ControllerSweep : public ::testing::TestWithParam<SweepParam>
{
  protected:
    ControllerSweep()
        : hier(cache::HierarchyParams{}, &em, &stats),
          ctrl(hier, &em, &stats)
    {
    }

    energy::EnergyModel em;
    StatRegistry stats;
    cache::Hierarchy hier;
    CcController ctrl;
};

TEST_P(ControllerSweep, FunctionalAcrossLevelsSizesAndOps)
{
    auto [level, size, op_sel] = GetParam();
    ctrl.mutableParams().forceLevel = level;

    Rng rng(static_cast<std::uint64_t>(size) * 31 + op_sel);
    std::vector<std::uint8_t> va(size), vb(size);
    for (std::size_t i = 0; i < size; ++i) {
        va[i] = static_cast<std::uint8_t>(rng.below(256));
        vb[i] = static_cast<std::uint8_t>(rng.below(256));
    }
    const Addr a = 0x100000, b = 0x110000, d = 0x120000;
    hier.memory().writeBytes(a, va.data(), size);
    hier.memory().writeBytes(b, vb.data(), size);

    CcInstruction instr = op_sel == 0
        ? CcInstruction::logicalAnd(a, b, d, size)
        : op_sel == 1 ? CcInstruction::logicalXor(a, b, d, size)
                      : CcInstruction::copy(a, d, size);
    auto res = ctrl.execute(0, instr);
    EXPECT_EQ(res.level, level);
    EXPECT_EQ(res.blockOps, size / kBlockSize);
    EXPECT_FALSE(res.riscFallback);

    for (std::size_t off = 0; off < size; off += kBlockSize) {
        Block got = hier.debugRead(d + off);
        for (std::size_t i = 0; i < kBlockSize; ++i) {
            std::uint8_t expect = op_sel == 0
                ? static_cast<std::uint8_t>(va[off + i] & vb[off + i])
                : op_sel == 1
                    ? static_cast<std::uint8_t>(va[off + i] ^ vb[off + i])
                    : va[off + i];
            ASSERT_EQ(got[i], expect)
                << "off " << off << " i " << i << " level "
                << toString(level);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    LevelsSizesOps, ControllerSweep,
    ::testing::Combine(
        ::testing::Values(CacheLevel::L1, CacheLevel::L2, CacheLevel::L3),
        ::testing::Values(std::size_t{64}, std::size_t{512},
                          std::size_t{4096}),
        ::testing::Values(0, 1, 2)),
    [](const auto &info) {
        std::string name = ccache::toString(std::get<0>(info.param));
        name += "_" + std::to_string(std::get<1>(info.param)) + "B_";
        int op = std::get<2>(info.param);
        name += op == 0 ? "and" : op == 1 ? "xor" : "copy";
        return name;
    });

/** In-place op latency must rise monotonically down the hierarchy. */
TEST(ControllerParams, LatencyMonotoneByLevel)
{
    EXPECT_LT(inPlaceLatency(CacheLevel::L1),
              inPlaceLatency(CacheLevel::L2));
    EXPECT_LT(inPlaceLatency(CacheLevel::L2),
              inPlaceLatency(CacheLevel::L3));
    // Near-place always slower than in-place at the same level.
    for (CacheLevel l :
         {CacheLevel::L1, CacheLevel::L2, CacheLevel::L3}) {
        EXPECT_GT(nearPlaceLatency(l), inPlaceLatency(l));
    }
}

/** Completion time must be monotonically non-increasing in the power
 *  cap and non-decreasing in vector size. */
class PowerCapSweep : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(PowerCapSweep, CapMonotonicity)
{
    unsigned cap = GetParam();

    auto run = [](unsigned c) {
        energy::EnergyModel em;
        StatRegistry stats;
        cache::Hierarchy hier(cache::HierarchyParams{}, &em, &stats);
        CcControllerParams params;
        params.maxActiveSubarrays = c;
        params.forceLevel = CacheLevel::L3;
        CcController ctrl(hier, &em, &stats, params);
        // Warm operands so only compute time is measured.
        for (Addr off = 0; off < 8192; off += kBlockSize) {
            hier.fetchToLevel(0, 0x100000 + off, CacheLevel::L3, false);
            hier.fetchToLevel(0, 0x110000 + off, CacheLevel::L3, true,
                              true);
        }
        return ctrl
            .execute(0, CcInstruction::copy(0x100000, 0x110000, 8192))
            .computeLatency;
    };

    Cycles with_cap = run(cap);
    Cycles doubled = run(cap * 2);
    EXPECT_GE(with_cap, doubled);
}

INSTANTIATE_TEST_SUITE_P(Caps, PowerCapSweep,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u, 32u));

/** Larger vectors must never complete faster at the same level. */
class SizeSweep : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(SizeSweep, SizeMonotonicity)
{
    std::size_t size = GetParam();
    energy::EnergyModel em;
    StatRegistry stats;
    cache::Hierarchy hier(cache::HierarchyParams{}, &em, &stats);
    CcControllerParams params;
    params.forceLevel = CacheLevel::L3;
    CcController ctrl(hier, &em, &stats, params);

    auto warm_run = [&](std::size_t n) {
        for (Addr off = 0; off < n; off += kBlockSize) {
            hier.fetchToLevel(0, 0x100000 + off, CacheLevel::L3, false);
            hier.fetchToLevel(0, 0x180000 + off, CacheLevel::L3, true,
                              true);
        }
        return ctrl
            .execute(0, CcInstruction::copy(0x100000, 0x180000, n))
            .computeLatency;
    };

    EXPECT_LE(warm_run(size), warm_run(size * 2));
}

INSTANTIATE_TEST_SUITE_P(Sizes, SizeSweep,
                         ::testing::Values(std::size_t{64},
                                           std::size_t{256},
                                           std::size_t{1024},
                                           std::size_t{4096}));

} // namespace
} // namespace ccache::cc
