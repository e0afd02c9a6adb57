/**
 * @file
 * Tests for the CC-idiom converter pass.
 */

#include <gtest/gtest.h>

#include "sample/idiom.hh"

namespace ccache::sample {
namespace {

using Kind = sim::TraceRecord::Kind;

sim::TraceRecord
rec(Kind kind, Addr addr, CoreId core = 0)
{
    sim::TraceRecord r;
    r.kind = kind;
    r.core = core;
    r.addr = addr;
    return r;
}

void
appendCopyRun(std::vector<sim::TraceRecord> &out, Addr src, Addr dst,
              std::size_t blocks, CoreId core = 0)
{
    for (std::size_t b = 0; b < blocks; ++b) {
        out.push_back(rec(Kind::Read, src + b * kBlockSize, core));
        out.push_back(rec(Kind::Write, dst + b * kBlockSize, core));
    }
}

TEST(IdiomConverter, RewritesCopyRun)
{
    std::vector<sim::TraceRecord> in;
    appendCopyRun(in, 0x10000, 0x20000, 8);
    auto out = convertIdioms(in);

    ASSERT_EQ(out.records.size(), 1u);
    const sim::TraceRecord &r = out.records[0];
    EXPECT_EQ(r.kind, Kind::CcOp);
    EXPECT_EQ(r.instr.op, cc::CcOpcode::Copy);
    EXPECT_EQ(r.instr.src1, 0x10000u);
    EXPECT_EQ(r.instr.dest, 0x20000u);
    EXPECT_EQ(r.instr.size, 8 * kBlockSize);
    EXPECT_EQ(out.stats.copyRuns, 1u);
    EXPECT_EQ(out.stats.copyBlocks, 8u);
    EXPECT_EQ(out.stats.recordsIn, 16u);
    EXPECT_EQ(out.stats.recordsOut, 1u);
}

TEST(IdiomConverter, RewritesZeroAndCmpRuns)
{
    std::vector<sim::TraceRecord> in;
    for (std::size_t b = 0; b < 6; ++b)
        in.push_back(rec(Kind::Write, 0x30000 + b * kBlockSize));
    for (std::size_t b = 0; b < 4; ++b) {
        in.push_back(rec(Kind::Read, 0x40000 + b * kBlockSize));
        in.push_back(rec(Kind::Read, 0x50000 + b * kBlockSize));
    }
    auto out = convertIdioms(in);

    ASSERT_EQ(out.records.size(), 2u);
    EXPECT_EQ(out.records[0].instr.op, cc::CcOpcode::Buz);
    EXPECT_EQ(out.records[0].instr.size, 6 * kBlockSize);
    EXPECT_EQ(out.records[1].instr.op, cc::CcOpcode::Cmp);
    EXPECT_EQ(out.records[1].instr.size, 4 * kBlockSize);
    EXPECT_EQ(out.stats.zeroBlocks, 6u);
    EXPECT_EQ(out.stats.cmpBlocks, 4u);
}

TEST(IdiomConverter, ShortRunsPassThroughRaw)
{
    std::vector<sim::TraceRecord> in;
    appendCopyRun(in, 0x10000, 0x20000, 3);   // below kMinRunBlocks = 4
    in.push_back(rec(Kind::Read, 0x90000));
    auto out = convertIdioms(in);
    EXPECT_EQ(out.records.size(), in.size());
    EXPECT_EQ(out.stats.copyRuns, 0u);
    EXPECT_EQ(out.stats.convertedRecords(), 0u);
}

TEST(IdiomConverter, InterleavedCoresDoNotBreakRuns)
{
    // Core 0 runs a memcpy while core 1 runs a memset, records
    // interleaved one-for-one; both must still convert.
    std::vector<sim::TraceRecord> a, b, in;
    appendCopyRun(a, 0x10000, 0x20000, 8, 0);
    for (std::size_t blk = 0; blk < 16; ++blk)
        b.push_back(rec(Kind::Write, 0x30000 + blk * kBlockSize, 1));
    for (std::size_t i = 0; i < a.size(); ++i) {
        in.push_back(a[i]);
        in.push_back(b[i]);
    }
    auto out = convertIdioms(in);

    EXPECT_EQ(out.stats.copyRuns, 1u);
    EXPECT_EQ(out.stats.copyBlocks, 8u);
    EXPECT_EQ(out.stats.zeroRuns, 1u);
    EXPECT_EQ(out.stats.zeroBlocks, 16u);
    ASSERT_EQ(out.records.size(), 2u);
}

TEST(IdiomConverter, LongRunsSplitAtIsaCaps)
{
    // 300 copied blocks = 19200 B > kMaxVectorBytes (16 KB): two
    // cc_copy chunks. 16 compared pairs = 1 KB > kMaxCmpBytes (512 B):
    // two cc_cmp chunks.
    std::vector<sim::TraceRecord> in;
    appendCopyRun(in, 0x100000, 0x200000, 300);
    for (std::size_t b = 0; b < 16; ++b) {
        in.push_back(rec(Kind::Read, 0x300000 + b * kBlockSize));
        in.push_back(rec(Kind::Read, 0x310000 + b * kBlockSize));
    }
    auto out = convertIdioms(in);

    ASSERT_EQ(out.records.size(), 4u);
    EXPECT_EQ(out.records[0].instr.size, cc::kMaxVectorBytes);
    EXPECT_EQ(out.records[1].instr.size,
              300 * kBlockSize - cc::kMaxVectorBytes);
    EXPECT_EQ(out.records[2].instr.size, cc::kMaxCmpBytes);
    EXPECT_EQ(out.records[3].instr.size,
              16 * kBlockSize - cc::kMaxCmpBytes);
    EXPECT_EQ(out.stats.copyBlocks, 300u);
    EXPECT_EQ(out.stats.cmpBlocks, 16u);
}

TEST(IdiomConverter, NonIdiomRecordsPassThroughInOrder)
{
    std::vector<sim::TraceRecord> in;
    in.push_back(rec(Kind::Read, 0x1000));
    sim::TraceRecord ccrec;
    ccrec.kind = Kind::CcOp;
    ccrec.instr = cc::CcInstruction::buz(0x10000, 1024);
    in.push_back(ccrec);
    in.push_back(rec(Kind::Write, 0x2040));
    in.push_back(rec(Kind::Read, 0x5000));
    auto out = convertIdioms(in);

    ASSERT_EQ(out.records.size(), 4u);
    EXPECT_EQ(out.records[0].addr, 0x1000u);
    EXPECT_EQ(out.records[1].kind, Kind::CcOp);
    EXPECT_EQ(out.records[2].addr, 0x2040u);
    EXPECT_EQ(out.records[3].addr, 0x5000u);
    EXPECT_EQ(out.stats.convertedRecords(), 0u);
}

TEST(IdiomConverter, MisalignedAddressesBreakRuns)
{
    // Same shape as a memset run but off block alignment: must pass
    // through raw rather than become an (invalid) cc_buz.
    std::vector<sim::TraceRecord> in;
    for (std::size_t b = 0; b < 8; ++b)
        in.push_back(rec(Kind::Write, 0x30004 + b * kBlockSize));
    auto out = convertIdioms(in);
    EXPECT_EQ(out.records.size(), in.size());
    EXPECT_EQ(out.stats.zeroRuns, 0u);
}

TEST(IdiomConverter, StrayRecordBetweenRunsKeepsBothRuns)
{
    std::vector<sim::TraceRecord> in;
    appendCopyRun(in, 0x10000, 0x20000, 8);
    in.push_back(rec(Kind::Write, 0x900000));   // lone scratch write
    appendCopyRun(in, 0x40000, 0x50000, 8);
    auto out = convertIdioms(in);

    EXPECT_EQ(out.stats.copyRuns, 2u);
    EXPECT_EQ(out.stats.copyBlocks, 16u);
    ASSERT_EQ(out.records.size(), 3u);
    EXPECT_EQ(out.records[1].kind, Kind::Write);
}

} // namespace
} // namespace ccache::sample
