/**
 * @file
 * Tests for the shared request builder: operand placement, heap
 * exhaustion degrading into a structured no_capacity rejection with
 * full rollback (DESIGN.md §12), the golden check of every serve
 * opcode, and the CcServer-level regression — an undersized heap sheds
 * instead of killing the run.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "geometry/locality_allocator.hh"
#include "serve/server.hh"
#include "sim/system.hh"
#include "workload/traffic_gen.hh"

namespace ccache::serve {
namespace {

workload::RequestSpec
makeSpec(cc::CcOpcode op, std::size_t bytes, Cycles arrival = 0)
{
    workload::RequestSpec spec;
    spec.arrival = arrival;
    spec.tenant = 0;
    spec.op = op;
    spec.bytes = bytes;
    return spec;
}

TEST(RequestBuilder, BuildsAndRecycles)
{
    sim::System sys;
    geometry::LocalityAllocator alloc(0x40000000, 1 << 20);
    RequestBuildParams params;

    RejectReason why = RejectReason::Malformed;
    std::optional<Request> req = buildRequest(
        sys, alloc, params, makeSpec(cc::CcOpcode::And, 4096), 1, &why);
    ASSERT_TRUE(req.has_value());
    EXPECT_EQ(req->buffers.size(), 3u); // src1, src2, dest
    std::size_t free_before = alloc.freeBytes();
    EXPECT_LT(free_before, static_cast<std::size_t>(1 << 20));

    recycleRequest(alloc, *req);
    EXPECT_GT(alloc.freeBytes(), free_before);
}

TEST(RequestBuilder, ChunksToIsaLimits)
{
    sim::System sys;
    geometry::LocalityAllocator alloc(0x40000000, 4 << 20);
    RequestBuildParams params;

    // 48 KB And = 3 chunks of the 16 KB vector limit.
    std::optional<Request> req =
        buildRequest(sys, alloc, params,
                     makeSpec(cc::CcOpcode::And, 3 * cc::kMaxVectorBytes),
                     2, nullptr);
    ASSERT_TRUE(req.has_value());
    EXPECT_EQ(req->chunks.size(), 2u); // head instr + 2 extra chunks

    // 2 KB Cmp = 4 chunks of the 512 B CC-R limit.
    std::optional<Request> cmp = buildRequest(
        sys, alloc, params, makeSpec(cc::CcOpcode::Cmp, 2048), 3, nullptr);
    ASSERT_TRUE(cmp.has_value());
    EXPECT_EQ(cmp->chunks.size(), 3u);
}

TEST(RequestBuilder, HeapExhaustionIsStructuredAndRollsBack)
{
    sim::System sys;
    geometry::LocalityAllocator alloc(0x40000000, 8192);
    RequestBuildParams params;
    std::size_t free_at_start = alloc.freeBytes();

    // Three 16 KB operands can never fit an 8 KB heap.
    RejectReason why = RejectReason::Malformed;
    std::optional<Request> req =
        buildRequest(sys, alloc, params,
                     makeSpec(cc::CcOpcode::And, cc::kMaxVectorBytes), 1,
                     &why);
    EXPECT_FALSE(req.has_value());
    EXPECT_EQ(why, RejectReason::NoCapacity);
    // Rollback is complete: the partial operand allocations were
    // returned, so a request that fits still succeeds.
    EXPECT_EQ(alloc.freeBytes(), free_at_start);
    std::optional<Request> small = buildRequest(
        sys, alloc, params, makeSpec(cc::CcOpcode::Buz, 1024), 2, nullptr);
    EXPECT_TRUE(small.has_value());
}

TEST(RequestBuilder, PatternFillIsShardIndependent)
{
    // The operand bytes are a pure function of (patternSeed, id): two
    // independent systems building the same request must agree on
    // every byte — the property hedged re-dispatch and golden
    // verification rest on.
    RequestBuildParams params;
    params.fillPattern = true;
    params.patternSeed = 0xfeedULL;

    auto build_and_dump = [&](std::uint64_t) {
        sim::System sys;
        geometry::LocalityAllocator alloc(0x40000000, 1 << 20);
        std::optional<Request> req = buildRequest(
            sys, alloc, params, makeSpec(cc::CcOpcode::Cmp, 512), 7,
            nullptr);
        EXPECT_TRUE(req.has_value());
        return sys.dump(req->instr.src1, 512);
    };
    EXPECT_EQ(build_and_dump(0), build_and_dump(1));
}

/** Fold every chunk's CC-R result register by OR, as the scheduler
 *  does, after executing the chunks on core 0. */
std::uint64_t
executeRequest(sim::System &sys, const Request &req)
{
    std::uint64_t mask = sys.cc().execute(0, req.instr).result;
    for (const cc::CcInstruction &in : req.chunks)
        mask |= sys.cc().execute(0, in).result;
    return mask;
}

/** Flip the byte at @p addr with a coherent core store. */
void
corruptByte(sim::System &sys, Addr addr)
{
    std::uint8_t b = static_cast<std::uint8_t>(~sys.dump(addr, 1)[0]);
    sys.hierarchy().storeBytes(1, addr, &b, 1);
}

/**
 * The golden check reads each chunk a page at a time. A CC-RW request
 * of a full 16 KB chunk plus two and a quarter pages, or a CC-R request
 * of one and an eighth pages, ends on a partial page of its last chunk;
 * one corrupted byte there must fail the check. CC-R results fold by
 * OR, so the CC-R cases plant their only match in that page and corrupt
 * it: a pattern-filled request matches every bit position in some
 * earlier chunk, which would hide the loss.
 */
class GoldenVerifyLastPage : public ::testing::TestWithParam<cc::CcOpcode>
{
};

TEST_P(GoldenVerifyLastPage, OneCorruptByteFailsTheCheck)
{
    const cc::CcOpcode op = GetParam();
    const bool ccr = cc::isCcR(op);
    const std::size_t n = ccr ? kPageSize + cc::kMaxCmpBytes
                              : cc::kMaxVectorBytes + 2 * kPageSize + 1024;
    sim::System sys;
    geometry::LocalityAllocator alloc(0x40000000, 1 << 20);
    RequestBuildParams params;
    params.fillPattern = !ccr;
    params.patternSeed = 0x5eed;
    std::optional<Request> req =
        buildRequest(sys, alloc, params, makeSpec(op, n), 11, nullptr);
    ASSERT_TRUE(req.has_value());
    EXPECT_EQ(req->chunks.size(), ccr ? 8u : 1u);

    Addr corrupt = 0;
    if (ccr) {
        std::vector<std::uint8_t> a(n);
        Rng rng(static_cast<std::uint64_t>(op) + 1);
        for (std::uint8_t &byte : a)
            byte = static_cast<std::uint8_t>(rng.below(256));
        sys.load(req->instr.src1, a.data(), n);
        // The match: the last block as the search key, or one word of
        // the last chunk equal in both cmp sources.
        const std::size_t hit = n - kBlockSize;
        if (op == cc::CcOpcode::Search) {
            sys.load(req->instr.src2, a.data() + hit, kBlockSize);
        } else {
            std::vector<std::uint8_t> b(n);
            for (std::size_t i = 0; i < n; ++i)
                b[i] = static_cast<std::uint8_t>(~a[i]);
            std::memcpy(b.data() + hit, a.data() + hit, 8);
            sys.load(req->instr.src2, b.data(), n);
        }
        corrupt = req->instr.src1 + hit;
    } else {
        // The result is dest; cc_buz encodes its one operand there too.
        corrupt = req->instr.dest + n - 100;
    }

    const std::uint64_t mask = executeRequest(sys, *req);
    EXPECT_EQ(mask != 0, ccr);
    EXPECT_TRUE(goldenVerifyRequest(sys, *req, mask));
    corruptByte(sys, corrupt);
    EXPECT_FALSE(goldenVerifyRequest(sys, *req, mask));
}

INSTANTIATE_TEST_SUITE_P(
    ServeOpcodes, GoldenVerifyLastPage,
    ::testing::Values(cc::CcOpcode::Buz, cc::CcOpcode::Copy,
                      cc::CcOpcode::Not, cc::CcOpcode::And,
                      cc::CcOpcode::Or, cc::CcOpcode::Xor,
                      cc::CcOpcode::Cmp, cc::CcOpcode::Search),
    [](const ::testing::TestParamInfo<cc::CcOpcode> &info) {
        return std::string(cc::toString(info.param)).substr(3);
    });

TEST(CcServer, UndersizedHeapShedsNoCapacity)
{
    // Regression: heap exhaustion at admission must degrade into a
    // structured no_capacity shed, not a FatalError mid-run.
    workload::TrafficParams traffic;
    traffic.totalRequests = 30;
    traffic.seed = 5;
    workload::TenantTraffic t;
    t.name = "tenant";
    t.requestsPerKilocycle = 1.0;
    t.minBytes = 16384;
    t.maxBytes = 16384;
    traffic.tenants.push_back(t);

    sim::System sys;
    ServerParams params;
    params.heapBytes = 8192;
    CcServer server(sys, params);
    ServeReport report = server.run(generateTraffic(traffic));

    EXPECT_EQ(report.served, 0u);
    EXPECT_EQ(report.rejected, report.offered);
    EXPECT_NE(report.rejections.dump().find("no_capacity"),
              std::string::npos);
}

} // namespace
} // namespace ccache::serve
