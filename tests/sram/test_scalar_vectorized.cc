/**
 * @file
 * Scalar-vs-vectorized differential tests for the bit-line hot path
 * (DESIGN.md §13): every CC op is run once through the per-bit analog
 * scalar path (SubArray::forceScalarBitline(true)) and once through the
 * word-at-a-time vectorized path, over identical inputs, and the two
 * must agree bit-for-bit — functional results, compare masks, op
 * costs, margin outcomes, and (critically) seeded fault injection,
 * whose RNG draw order the vectorized path must preserve exactly.
 *
 * Also covers the word-boundary edge cases the packed-row
 * representation introduces: row widths that are not a multiple of 64
 * bits (tail-word masking in the BitcellArray senses) and cmp/search
 * operand differences that straddle 64-bit word boundaries.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cache/hierarchy.hh"
#include "cc/cc_controller.hh"
#include "common/rng.hh"
#include "sram/bitcell_array.hh"
#include "sram/subarray.hh"

namespace ccache::sram {
namespace {

using Bytes = std::vector<std::uint8_t>;

/** RAII scope forcing one bit-line path; restores the vectorized
 *  default. */
struct BitlinePath
{
    explicit BitlinePath(bool scalar)
    {
        SubArray::forceScalarBitline(scalar);
    }
    ~BitlinePath() { SubArray::forceScalarBitline(false); }
};

Block
randomBlock(Rng &rng)
{
    Block b;
    for (auto &byte : b)
        byte = static_cast<std::uint8_t>(rng.below(256));
    return b;
}

SubArrayParams
smallParams()
{
    SubArrayParams p;
    p.rows = 16;
    p.cols = 1024;  // two block partitions
    return p;
}

/** Everything observable from one op sequence over one sub-array. */
struct OpTrace
{
    std::vector<Bytes> reads;
    std::vector<std::uint64_t> masks;
    std::vector<bool> allEqual;
    std::vector<Cycles> delays;
    std::vector<bool> marginFails;

    bool operator==(const OpTrace &) const = default;
};

/**
 * Run the full op catalog (and/or/xor/nor/not/copy/buz/cmp/search/
 * clmul) on a fresh sub-array under the selected path and record every
 * observable output. @p fp, when enabled, attaches a seeded fault
 * injector — the fault stream is part of the observable behaviour.
 */
OpTrace
runCatalog(bool scalar, std::uint64_t seed, const fault::FaultParams &fp)
{
    BitlinePath path(scalar);
    SubArray sa(smallParams());
    fault::FaultInjector inj(fp);
    if (fp.enabled)
        sa.attachFaults(&inj, /*base_id=*/7);

    Rng rng(seed);
    OpTrace t;
    auto note_read = [&](const BlockLoc &loc) {
        Block b = sa.read(loc);
        t.reads.emplace_back(b.begin(), b.end());
        t.marginFails.push_back(sa.lastMarginFailed());
    };

    for (int trial = 0; trial < 6; ++trial) {
        sa.write({0, 0}, randomBlock(rng));
        sa.write({0, 1}, randomBlock(rng));

        OpCost c;
        c = sa.opAnd({0, 0}, {0, 1}, {0, 2});
        t.delays.push_back(c.delay);
        note_read({0, 2});
        c = sa.opOr({0, 0}, {0, 1}, {0, 3});
        t.delays.push_back(c.delay);
        note_read({0, 3});
        c = sa.opXor({0, 0}, {0, 1}, {0, 4});
        t.delays.push_back(c.delay);
        note_read({0, 4});
        c = sa.opNor({0, 0}, {0, 1}, {0, 5});
        t.delays.push_back(c.delay);
        note_read({0, 5});
        c = sa.opNot({0, 0}, {0, 6});
        t.delays.push_back(c.delay);
        note_read({0, 6});
        c = sa.opCopy({0, 1}, {0, 7});
        t.delays.push_back(c.delay);
        note_read({0, 7});
        c = sa.opBuz({0, 7});
        t.delays.push_back(c.delay);
        note_read({0, 7});

        CmpResult cmp = sa.opCmp({0, 0}, {0, 1});
        t.masks.push_back(cmp.wordEqualMask);
        t.allEqual.push_back(cmp.allEqual);
        CmpResult srch = sa.opSearch({0, 1}, {0, 0});
        t.masks.push_back(srch.wordEqualMask);
        t.allEqual.push_back(srch.allEqual);

        ClmulResult cl = sa.opClmul({0, 0}, {0, 1}, 128);
        for (bool p : cl.parities)
            t.allEqual.push_back(p);

        // Sources must survive unchanged under both paths.
        note_read({0, 0});
        note_read({0, 1});
    }
    return t;
}

/**
 * Same contract for the bit-serial arithmetic class: the carry-latch
 * sequences (add/sub/mul/compare) under the scalar per-bit path and the
 * word-at-a-time path must agree on results, costs, compare masks and
 * the seeded fault stream.
 */
OpTrace
runBitSerialCatalog(bool scalar, std::uint64_t seed,
                    const fault::FaultParams &fp)
{
    BitlinePath path(scalar);
    SubArrayParams sp = smallParams();
    sp.rows = 128;  // three 32-slice operand stacks
    SubArray sa(sp);
    fault::FaultInjector inj(fp);
    if (fp.enabled)
        sa.attachFaults(&inj, /*base_id=*/13);

    Rng rng(seed);
    OpTrace t;
    auto note_read = [&](const BlockLoc &loc) {
        Block b = sa.read(loc);
        t.reads.emplace_back(b.begin(), b.end());
        t.marginFails.push_back(sa.lastMarginFailed());
    };

    for (std::size_t w : {1u, 8u, 17u, 32u}) {
        BitSerialOperand a{0, 0}, b{0, 32}, dst{0, 64};
        for (std::size_t k = 0; k < w; ++k) {
            sa.write({a.partition, a.row0 + k}, randomBlock(rng));
            sa.write({b.partition, b.row0 + k}, randomBlock(rng));
        }

        OpCost c = sa.opBitSerialAdd(a, b, dst, w);
        t.delays.push_back(c.delay);
        for (std::size_t k = 0; k < w; ++k)
            note_read({dst.partition, dst.row0 + k});
        c = sa.opBitSerialSub(a, b, dst, w);
        t.delays.push_back(c.delay);
        for (std::size_t k = 0; k < w; ++k)
            note_read({dst.partition, dst.row0 + k});
        c = sa.opBitSerialMul(a, b, dst, w);
        t.delays.push_back(c.delay);
        for (std::size_t k = 0; k < w; ++k)
            note_read({dst.partition, dst.row0 + k});

        for (bool is_signed : {false, true}) {
            BitSerialCmpResult cmp =
                sa.opBitSerialCompare(a, b, w, is_signed);
            t.reads.push_back(cmp.lt.toBytes());
            t.reads.push_back(cmp.gt.toBytes());
            t.reads.push_back(cmp.eq.toBytes());
            t.delays.push_back(cmp.cost.delay);
        }

        // Sources must survive under both paths.
        for (std::size_t k = 0; k < w; ++k) {
            note_read({a.partition, a.row0 + k});
            note_read({b.partition, b.row0 + k});
        }
    }
    return t;
}

class ScalarVectorized : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(ScalarVectorized, FaultFreeCatalogBitIdentical)
{
    fault::FaultParams off;
    EXPECT_EQ(runCatalog(/*scalar=*/true, GetParam(), off),
              runCatalog(/*scalar=*/false, GetParam(), off));
}

TEST_P(ScalarVectorized, SeededFaultRunsBitIdentical)
{
    // Aggressive rates so every rung of the ladder draws: the
    // vectorized path must consume the injector's RNG in exactly the
    // per-bit path's order, or the streams diverge within a few ops.
    fault::FaultParams fp;
    fp.enabled = true;
    fp.seed = GetParam() * 2654435761u + 17;
    fp.transientPerBlockOp = 0.3;
    fp.doubleBitFraction = 0.25;
    fp.burstFraction = 0.1;
    fp.stuckAtPerBlock = 0.2;
    fp.stuckAtDoubleFraction = 0.2;
    fp.marginFailPerDualRowOp = 0.3;
    EXPECT_EQ(runCatalog(/*scalar=*/true, GetParam(), fp),
              runCatalog(/*scalar=*/false, GetParam(), fp));
}

TEST_P(ScalarVectorized, RawMultiRowDisturbBitIdentical)
{
    // Weak underdrive + many active rows exercises the read-disturb
    // collapse, whose whole-row corruption the vectorized path applies
    // word-at-a-time.
    auto run = [&](bool scalar) {
        BitlinePath path(scalar);
        SubArrayParams p = smallParams();
        p.wordlineUnderdrive = 0.95;   // above the disturb threshold
        SubArray sa(p);
        Rng rng(GetParam() ^ 0xd15707bULL);
        for (std::size_t r = 0; r < 8; ++r)
            sa.write({0, r}, randomBlock(rng));

        SubArray::RawSense s = sa.rawActivate({0, 1, 2, 3});
        std::vector<Bytes> out;
        out.push_back(s.andResult.toBytes());
        out.push_back(s.norResult.toBytes());
        for (std::size_t r = 0; r < 8; ++r) {
            Block b = sa.read({0, r});
            out.emplace_back(b.begin(), b.end());
        }
        return out;
    };
    EXPECT_EQ(run(true), run(false));
}

TEST_P(ScalarVectorized, BitSerialCatalogBitIdentical)
{
    fault::FaultParams off;
    EXPECT_EQ(runBitSerialCatalog(/*scalar=*/true, GetParam(), off),
              runBitSerialCatalog(/*scalar=*/false, GetParam(), off));
}

TEST_P(ScalarVectorized, BitSerialSeededFaultRunsBitIdentical)
{
    fault::FaultParams fp;
    fp.enabled = true;
    fp.seed = GetParam() * 2654435761u + 23;
    fp.transientPerBlockOp = 0.2;
    fp.doubleBitFraction = 0.25;
    fp.stuckAtPerBlock = 0.1;
    fp.marginFailPerDualRowOp = 0.2;
    EXPECT_EQ(runBitSerialCatalog(/*scalar=*/true, GetParam(), fp),
              runBitSerialCatalog(/*scalar=*/false, GetParam(), fp));
}

INSTANTIATE_TEST_SUITE_P(FixedSeeds, ScalarVectorized,
                         ::testing::Values(1u, 7u, 42u, 0xfeedu));

// ---------------------------------------------------------------------
// Word-boundary edges.
// ---------------------------------------------------------------------

TEST(ScalarVectorizedEdges, RowWidthNotMultipleOf64)
{
    // A 100-column array leaves 36 dead bits in the tail word; the
    // vectorized senses must mask them exactly like the per-column
    // scan, under both clean and disturbing activations.
    BitcellArray arr(/*rows=*/4, /*cols=*/100);
    Rng rng(99);
    for (std::size_t r = 0; r < 4; ++r) {
        BitVector row(100);
        for (std::size_t c = 0; c < 100; ++c)
            row.set(c, rng.below(2) != 0);
        arr.writeRow(r, row);
    }

    for (double underdrive : {0.7, 0.95}) {
        BitcellArray a = arr, b = arr;

        BitlineLevels lv = a.activate({0, 1}, underdrive);
        ASSERT_EQ(lv.bl.size(), 100u);
        BitcellArray::DigitalSense ds =
            b.activateWords({0, 1}, underdrive, /*track_margin=*/true);

        double margin = 1.0;
        for (std::size_t c = 0; c < 100; ++c) {
            EXPECT_EQ(ds.andBits.get(c), lv.bl[c] > 0.5) << "col " << c;
            EXPECT_EQ(ds.norBits.get(c), lv.blb[c] > 0.5) << "col " << c;
            margin = std::min({margin, std::abs(lv.bl[c] - 0.5),
                               std::abs(lv.blb[c] - 0.5)});
        }
        EXPECT_DOUBLE_EQ(ds.margin, margin);

        // Disturb corruption (if any) must land identically.
        for (std::size_t r = 0; r < 4; ++r)
            EXPECT_EQ(a.readRow(r).toBytes(), b.readRow(r).toBytes())
                << "row " << r << " underdrive " << underdrive;
    }
}

TEST(ScalarVectorizedEdges, CmpDifferenceStraddlingWordBoundary)
{
    // Operands equal everywhere except a 16-bit difference spanning
    // bytes 7..8 — the boundary between packed words 0 and 1. Word 0
    // and word 1 must BOTH report unequal, under both paths.
    auto run = [&](bool scalar) {
        BitlinePath path(scalar);
        SubArray sa(smallParams());
        Rng rng(1234);
        Block a = randomBlock(rng);
        Block b = a;
        b[7] ^= 0x80;
        b[8] ^= 0x01;
        sa.write({0, 0}, a);
        sa.write({0, 1}, b);
        return sa.opCmp({0, 0}, {0, 1});
    };
    CmpResult s = run(true), v = run(false);
    EXPECT_EQ(s.wordEqualMask, v.wordEqualMask);
    EXPECT_EQ(s.allEqual, v.allEqual);
    EXPECT_FALSE(v.allEqual);
    EXPECT_EQ(v.wordEqualMask & 0x3u, 0u);          // words 0,1 unequal
    EXPECT_EQ(v.wordEqualMask >> 2,
              (~std::uint64_t{0} >> 2) & 0x3f);     // words 2..7 equal
}

TEST(ScalarVectorizedEdges, SearchKeyMatchOnEveryWordOffset)
{
    // The key equals the data in exactly one 64-bit word per trial,
    // sweeping all eight word positions: each packed-mask bit position
    // must fire under both paths.
    for (std::size_t w = 0; w < kWordsPerBlock; ++w) {
        auto run = [&](bool scalar) {
            BitlinePath path(scalar);
            SubArray sa(smallParams());
            Rng rng(4321 + w);
            Block data = randomBlock(rng);
            Block key = randomBlock(rng);
            std::copy_n(data.begin() + w * 8, 8, key.begin() + w * 8);
            sa.write({0, 0}, key);
            sa.write({0, 1}, data);
            return sa.opSearch({0, 0}, {0, 1});
        };
        CmpResult s = run(true), v = run(false);
        EXPECT_EQ(s.wordEqualMask, v.wordEqualMask) << "word " << w;
        EXPECT_EQ(v.wordEqualMask, std::uint64_t{1} << w);
    }
}

// ---------------------------------------------------------------------
// End-to-end: the CC controller over the real hierarchy, fault ladder
// armed at aggressive seeded rates, must produce byte-identical memory
// images and identical fault accounting under either bit-line path.
// ---------------------------------------------------------------------

TEST(ScalarVectorizedController, FaultLadderRunBitIdentical)
{
    struct Outcome
    {
        Bytes image;
        std::uint64_t retries = 0, degraded = 0, recovered = 0;
        std::vector<std::uint64_t> results;

        bool operator==(const Outcome &) const = default;
    };

    auto run = [](bool scalar) {
        BitlinePath path(scalar);
        energy::EnergyModel em;
        StatRegistry stats;
        cache::Hierarchy hier(cache::HierarchyParams{}, &em, &stats);
        cc::CcControllerParams cp;
        cp.faults.enabled = true;
        cp.faults.seed = 4242;
        cp.faults.transientPerBlockOp = 0.05;
        cp.faults.doubleBitFraction = 0.2;
        cp.faults.stuckAtPerBlock = 0.02;
        cp.faults.marginFailPerDualRowOp = 0.05;
        cc::CcController ctrl(hier, &em, &stats, cp);

        Rng rng(2718);
        Bytes a(2048), b(2048);
        for (auto &x : a)
            x = static_cast<std::uint8_t>(rng.below(256));
        for (auto &x : b)
            x = static_cast<std::uint8_t>(rng.below(256));
        hier.memory().writeBytes(0x10000, a.data(), a.size());
        hier.memory().writeBytes(0x20000, b.data(), b.size());

        Outcome out;
        auto exec = [&](const cc::CcInstruction &in) {
            auto res = ctrl.execute(0, in);
            out.retries += res.faultRetries;
            out.degraded += res.faultDegradedOps;
            out.recovered += res.faultRiscRecoveries;
            out.results.push_back(res.result);
        };
        exec(cc::CcInstruction::logicalAnd(0x10000, 0x20000, 0x30000,
                                           2048));
        exec(cc::CcInstruction::logicalXor(0x30000, 0x20000, 0x40000,
                                           2048));
        exec(cc::CcInstruction::logicalNot(0x40000, 0x50000, 2048));
        exec(cc::CcInstruction::copy(0x50000, 0x60000, 2048));
        exec(cc::CcInstruction::cmp(0x30000, 0x40000, 512));
        exec(cc::CcInstruction::search(0x10000, 0x20000, 512));
        exec(cc::CcInstruction::buz(0x60000, 2048));

        for (Addr base : {0x30000u, 0x40000u, 0x50000u, 0x60000u})
            for (std::size_t off = 0; off < 2048; off += kBlockSize) {
                Block blk = hier.debugRead(base + off);
                out.image.insert(out.image.end(), blk.begin(), blk.end());
            }
        return out;
    };

    EXPECT_EQ(run(true), run(false));
}

} // namespace
} // namespace ccache::sram
