/**
 * @file
 * Tests for the energy tables (Tables I and V) and the
 * component-resolved energy accounting. The transcription tests type
 * their expected values from the paper, not from the code.
 */

#include <gtest/gtest.h>

#include "energy/energy_model.hh"

namespace ccache::energy {
namespace {

TEST(EnergyParams, TableIValuesTranscribed)
{
    // Table I: cache-ic (H-tree) / cache-access pJ per read.
    EXPECT_DOUBLE_EQ(readSplit(CacheLevel::L1).htree, 179.0);
    EXPECT_DOUBLE_EQ(readSplit(CacheLevel::L1).access, 116.0);
    EXPECT_DOUBLE_EQ(readSplit(CacheLevel::L2).htree, 675.0);
    EXPECT_DOUBLE_EQ(readSplit(CacheLevel::L2).access, 127.0);
    EXPECT_DOUBLE_EQ(readSplit(CacheLevel::L3).htree, 1985.0);
    EXPECT_DOUBLE_EQ(readSplit(CacheLevel::L3).access, 467.0);
}

TEST(EnergyParams, TableVValuesTranscribed)
{
    // Every Table V cell, pJ per 64-byte block, in the paper's column
    // order; the columns print under the paper's names.
    const CacheOp ops[] = {CacheOp::Write, CacheOp::Read, CacheOp::Cmp,
                           CacheOp::Copy, CacheOp::Search, CacheOp::Not,
                           CacheOp::Logic};
    const char *names[] = {"write", "read", "cmp", "copy",
                           "search", "not", "logic"};
    for (std::size_t i = 0; i < 7; ++i)
        EXPECT_STREQ(toString(ops[i]), names[i]);
    const struct
    {
        CacheLevel level;
        double pj[7];
    } rows[] = {
        {CacheLevel::L3, {2852, 2452, 840, 1340, 3692, 1340, 1672}},
        {CacheLevel::L2, {1154, 802, 242, 608, 1396, 608, 704}},
        {CacheLevel::L1, {375, 295, 186, 324, 561, 324, 387}},
    };
    for (const auto &row : rows) {
        for (std::size_t i = 0; i < 7; ++i)
            EXPECT_DOUBLE_EQ(cacheOpEnergy(row.level, ops[i]), row.pj[i])
                << toString(row.level) << " " << toString(ops[i]);
    }
}

TEST(EnergyParams, PaperInternalConsistency)
{
    // read == Table I ic + access at every level.
    for (CacheLevel l :
         {CacheLevel::L1, CacheLevel::L2, CacheLevel::L3}) {
        EXPECT_DOUBLE_EQ(cacheOpEnergy(l, CacheOp::Read),
                         readSplit(l).total());
    }
    // search == cmp + write (the key write, Section VI-C).
    for (CacheLevel l :
         {CacheLevel::L1, CacheLevel::L2, CacheLevel::L3}) {
        EXPECT_DOUBLE_EQ(cacheOpEnergy(l, CacheOp::Search),
                         cacheOpEnergy(l, CacheOp::Cmp) +
                             cacheOpEnergy(l, CacheOp::Write));
    }
    // buz costed like copy; clmul like cmp.
    EXPECT_DOUBLE_EQ(cacheOpEnergy(CacheLevel::L3, CacheOp::Buz),
                     cacheOpEnergy(CacheLevel::L3, CacheOp::Copy));
    EXPECT_DOUBLE_EQ(cacheOpEnergy(CacheLevel::L3, CacheOp::Clmul),
                     cacheOpEnergy(CacheLevel::L3, CacheOp::Cmp));
}

TEST(EnergyParams, HtreeFractions)
{
    // Baseline accesses follow the Table I split (L3 ~81%).
    EXPECT_NEAR(htreeFraction(CacheLevel::L3, CacheOp::Read), 0.81, 0.01);
    // In-place ops only pay command distribution (small fixed share).
    EXPECT_DOUBLE_EQ(htreeFraction(CacheLevel::L3, CacheOp::Logic), 0.10);
    EXPECT_DOUBLE_EQ(htreeFraction(CacheLevel::L1, CacheOp::Cmp), 0.10);
    // Search's fraction reflects only its embedded key write.
    double search = htreeFraction(CacheLevel::L3, CacheOp::Search);
    EXPECT_GT(search, 0.10);
    EXPECT_LT(search, htreeFraction(CacheLevel::L3, CacheOp::Write));
}

TEST(EnergyModelTest, ChargeCacheOpSplitsComponents)
{
    EnergyModel em;
    em.chargeCacheOp(CacheLevel::L3, CacheOp::Read, 2);
    double total = em.dynamic().l3Access + em.dynamic().l3Ic;
    EXPECT_DOUBLE_EQ(total, 2 * 2452.0);
    // The split follows the Table I ratio.
    EXPECT_NEAR(em.dynamic().l3Ic / total, 0.81, 0.01);
    EXPECT_DOUBLE_EQ(em.dynamic().l1Access, 0.0);
}

TEST(EnergyModelTest, InstructionCharges)
{
    EnergyModel em;
    em.chargeInstructions(10);
    EXPECT_DOUBLE_EQ(em.dynamic().core, 10 * kCorePerInstr);
    em.chargeVectorInstructions(1);
    EXPECT_DOUBLE_EQ(em.dynamic().core,
                     10 * kCorePerInstr + kCorePerInstr + kCoreVectorExtra);
}

TEST(EnergyModelTest, NocChargePerFlitHop)
{
    EnergyModel em;
    em.chargeNoc(72, 3);  // 9 flits x 3 hops
    EXPECT_DOUBLE_EQ(em.dynamic().noc, 27 * kNocPerFlitHop);
}

TEST(EnergyModelTest, BreakdownArithmetic)
{
    EnergyModel em;
    em.addCore(100.0);
    em.addCacheAccess(CacheLevel::L1, 10.0);
    em.addCacheAccess(CacheLevel::L2, 20.0);
    em.addCacheIc(CacheLevel::L3, 30.0);
    em.chargeNoc(8, 1);
    em.chargeDram(1);

    const auto &d = em.dynamic();
    EXPECT_DOUBLE_EQ(d.cacheAccess(), 30.0);
    EXPECT_DOUBLE_EQ(d.cacheIc(), 30.0);
    EXPECT_DOUBLE_EQ(d.dataMovement(),
                     60.0 + d.noc + kDramPerBlock);
    EXPECT_DOUBLE_EQ(d.dynamicTotal(), 100.0 + d.dataMovement());
}

TEST(EnergyModelTest, BreakdownAccumulation)
{
    EnergyBreakdown a, b;
    a.core = 1;
    a.l1Access = 2;
    b.core = 10;
    b.noc = 5;
    a += b;
    EXPECT_DOUBLE_EQ(a.core, 11.0);
    EXPECT_DOUBLE_EQ(a.l1Access, 2.0);
    EXPECT_DOUBLE_EQ(a.noc, 5.0);
}

TEST(EnergyModelTest, StaticScalesWithTimeCoresAndShare)
{
    EnergyModel em;
    auto t1 = em.totals(2660000, 1, 1.0);  // 1 ms at 2.66 GHz
    EXPECT_NEAR(t1.coreStatic, kCoreStaticW * 1e-3 * 1e12, 1e6);
    auto t8 = em.totals(2660000, 8, 1.0);
    EXPECT_NEAR(t8.coreStatic / t1.coreStatic, 8.0, 1e-9);
    auto half = em.totals(2660000, 1, 0.5);
    EXPECT_NEAR(half.uncoreStatic / t1.uncoreStatic, 0.5, 1e-9);
}

TEST(EnergyModelTest, ResetClearsDynamicOnly)
{
    EnergyModel em;
    em.addCore(50.0);
    em.reset();
    EXPECT_DOUBLE_EQ(em.dynamic().dynamicTotal(), 0.0);
    // Static is derived from elapsed time, unaffected by reset.
    EXPECT_GT(em.totals(1000, 1).coreStatic, 0.0);
}

TEST(EnergyModelTest, ReportListsComponents)
{
    EnergyModel em;
    em.addCore(123.0);
    std::string report = em.report();
    EXPECT_NE(report.find("core"), std::string::npos);
    EXPECT_NE(report.find("123"), std::string::npos);
    EXPECT_NE(report.find("dynamic-total"), std::string::npos);
}

} // namespace
} // namespace ccache::energy
