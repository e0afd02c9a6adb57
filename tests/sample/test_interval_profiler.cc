/**
 * @file
 * Tests for the streaming interval profiler.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "sample/interval_profiler.hh"

namespace ccache::sample {
namespace {

sim::TraceRecord
rec(sim::TraceRecord::Kind kind, Addr addr, CoreId core = 0)
{
    sim::TraceRecord r;
    r.kind = kind;
    r.core = core;
    r.addr = addr;
    return r;
}

sim::TraceRecord
ccRec(cc::CcInstruction instr, CoreId core = 0)
{
    sim::TraceRecord r;
    r.kind = sim::TraceRecord::Kind::CcOp;
    r.core = core;
    r.instr = instr;
    return r;
}

TEST(IntervalProfiler, SlicesAndCountsExactly)
{
    IntervalProfiler prof(4);
    for (int i = 0; i < 6; ++i)
        prof.observe(rec(sim::TraceRecord::Kind::Read,
                         0x1000 + static_cast<Addr>(i) * kBlockSize));
    for (int i = 0; i < 3; ++i)
        prof.observe(rec(sim::TraceRecord::Kind::Write, 0x2000));
    prof.observe(ccRec(cc::CcInstruction::buz(0x10000, 1024)));
    prof.finish();

    // 10 records at 4 per interval: 4 + 4 + a 2-record tail.
    ASSERT_EQ(prof.intervals().size(), 3u);
    EXPECT_EQ(prof.intervals()[0].records, 4u);
    EXPECT_EQ(prof.intervals()[0].firstRecord, 0u);
    EXPECT_EQ(prof.intervals()[1].firstRecord, 4u);
    EXPECT_EQ(prof.intervals()[2].records, 2u);

    EXPECT_EQ(prof.totals().records, 10u);
    EXPECT_EQ(prof.totals().reads, 6u);
    EXPECT_EQ(prof.totals().writes, 3u);
    EXPECT_EQ(prof.totals().ccOps, 1u);
    EXPECT_EQ(prof.totals().ccBytes, 1024u);

    // finish() is idempotent.
    prof.finish();
    EXPECT_EQ(prof.intervals().size(), 3u);
}

TEST(IntervalProfiler, WorkingSetCountsDistinctPages)
{
    IntervalProfiler prof(8);
    // Two accesses to page 0, three to page 1, one CC op touching two
    // operand pages (4 and 8).
    prof.observe(rec(sim::TraceRecord::Kind::Read, 0x0));
    prof.observe(rec(sim::TraceRecord::Kind::Write, 0x40));
    prof.observe(rec(sim::TraceRecord::Kind::Read, kPageSize));
    prof.observe(rec(sim::TraceRecord::Kind::Read, kPageSize + 0x80));
    prof.observe(rec(sim::TraceRecord::Kind::Read, kPageSize));
    prof.observe(ccRec(cc::CcInstruction::copy(4 * kPageSize,
                                               8 * kPageSize, 64)));
    prof.finish();
    ASSERT_EQ(prof.intervals().size(), 1u);
    EXPECT_EQ(prof.intervals()[0].workingSetPages, 4u);
}

TEST(IntervalProfiler, ReuseHistorySpansIntervals)
{
    IntervalProfiler prof(2);
    // Block A touched in interval 0, then again in interval 1: the
    // second touch is a reuse, not a cold touch, because the last-touch
    // map persists across the interval boundary.
    prof.observe(rec(sim::TraceRecord::Kind::Read, 0x1000));
    prof.observe(rec(sim::TraceRecord::Kind::Read, 0x2000));
    prof.observe(rec(sim::TraceRecord::Kind::Read, 0x1000));
    prof.observe(rec(sim::TraceRecord::Kind::Read, 0x3000));
    prof.finish();
    ASSERT_EQ(prof.intervals().size(), 2u);
    EXPECT_EQ(prof.intervals()[0].coldTouches, 2u);
    EXPECT_EQ(prof.intervals()[1].coldTouches, 1u);  // only 0x3000

    std::uint64_t reuses = 0;
    for (std::uint64_t n : prof.intervals()[1].reuseHist)
        reuses += n;
    EXPECT_EQ(reuses, 1u);  // the revisit of 0x1000
}

TEST(IntervalProfiler, NormalizedFeaturesBounded)
{
    IntervalProfiler prof(16);
    for (int i = 0; i < 8; ++i)
        prof.observe(rec(sim::TraceRecord::Kind::Read,
                         static_cast<Addr>(i) * kPageSize));
    for (int i = 0; i < 4; ++i)
        prof.observe(rec(sim::TraceRecord::Kind::Write, 0x9000));
    prof.observe(ccRec(cc::CcInstruction::buz(0x100000, 4096)));
    prof.finish();

    std::vector<double> f = prof.intervals()[0].normalized();
    ASSERT_FALSE(f.empty());
    for (double v : f) {
        EXPECT_GE(v, 0.0);
        EXPECT_LE(v, 1.0);
    }
    // Read fraction leads the vector: 8 of 13 records.
    EXPECT_NEAR(f[0], 8.0 / 13.0, 1e-12);
}

TEST(IntervalProfiler, OneShotHelperMatchesStreaming)
{
    std::vector<sim::TraceRecord> records;
    for (int i = 0; i < 10; ++i)
        records.push_back(rec(sim::TraceRecord::Kind::Read,
                              static_cast<Addr>(i) * kBlockSize));
    auto oneShot = profileTrace(records, 3);

    IntervalProfiler prof(3);
    for (const auto &r : records)
        prof.observe(r);
    prof.finish();

    ASSERT_EQ(oneShot.size(), prof.intervals().size());
    for (std::size_t i = 0; i < oneShot.size(); ++i) {
        EXPECT_EQ(oneShot[i].records, prof.intervals()[i].records);
        EXPECT_EQ(oneShot[i].coldTouches,
                  prof.intervals()[i].coldTouches);
    }
}

TEST(IntervalProfiler, RejectsZeroIntervalSize)
{
    EXPECT_THROW(IntervalProfiler(0), FatalError);
}

} // namespace
} // namespace ccache::sample
