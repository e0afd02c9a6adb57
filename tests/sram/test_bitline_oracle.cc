/**
 * @file
 * The references the word-at-a-time bit-line model is held to.
 *
 * 1. A per-column analog oracle of multi-row activation (paper Fig. 2),
 *    written independently of sram::BitcellArray. activateWords and
 *    SubArray::rawActivate must match its senses, its sense margin and
 *    the cell contents it leaves behind (read disturb) over 1-64 active
 *    rows, row widths 64/100/512/1024 and underdrives below, at and
 *    above the disturb threshold.
 * 2. Digests of seeded sub-array op catalogs and of a controller run
 *    with the fault ladder armed, recorded while a per-bit scalar path
 *    still ran beside the word path and matched it bit for bit (the
 *    ScalarVectorized suite names date from then). A change that moves a
 *    digest changes the simulated output or the fault injector's RNG
 *    draw order; it must re-record the digest and say why.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "cache/hierarchy.hh"
#include "cc/cc_controller.hh"
#include "common/rng.hh"
#include "sram/bitcell_array.hh"
#include "sram/subarray.hh"
#include "tests/digest.hh"

namespace ccache::sram {
namespace {

/** What the oracle's single-ended sense amplifiers observe. */
struct OracleSense
{
    BitVector andBits;    ///< BL above Vref, per column
    BitVector norBits;    ///< BLB above Vref, per column
    double margin = 1.0;  ///< smallest |level - Vref| over every BL and BLB
};

/**
 * Per-column Fig. 2 model. Both bit-lines precharge to VDD (1.0); each
 * activated cell storing '0' pulls BL down by 0.6 VDD and each storing
 * '1' pulls BLB down by 0.6 VDD, clamped at ground. A line senses '1'
 * iff it stays above Vref = 0.5. With more than one row raised at a
 * word-line underdrive above 0.85, a BL pulled below Vref writes '0'
 * into every activated cell of its column (read disturb). @p cells
 * holds one bit vector per word-line and is updated in place.
 */
OracleSense
oracleActivate(std::vector<BitVector> &cells,
               const std::vector<std::size_t> &active, double underdrive)
{
    const std::size_t cols = cells.at(active.at(0)).size();
    OracleSense s{BitVector(cols), BitVector(cols)};
    for (std::size_t c = 0; c < cols; ++c) {
        int zeros = 0, ones = 0;
        for (auto r : active)
            ++(cells[r].get(c) ? ones : zeros);
        double bl = std::max(0.0, 1.0 - 0.6 * zeros);
        double blb = std::max(0.0, 1.0 - 0.6 * ones);
        s.andBits.set(c, bl > 0.5);
        s.norBits.set(c, blb > 0.5);
        s.margin = std::min({s.margin, std::abs(bl - 0.5),
                             std::abs(blb - 0.5)});
        if (active.size() > 1 && underdrive > 0.85 && bl < 0.5) {
            for (auto r : active)
                cells[r].set(c, false);
        }
    }
    return s;
}

/**
 * @p nrows rows of @p cols bits, drawn column by column from five kinds:
 * all '1', all '0', a lone '0', a lone '1' (whose single pulling cell
 * leaves a line at 0.4, the 0.1 margin) or random bits. Without
 * @p single_pullers only the two uniform kinds are drawn, so with two or
 * more active rows every line sits at 1.0 or 0.0 and the margin is 0.5.
 */
std::vector<BitVector>
oracleRows(Rng &rng, std::size_t nrows, std::size_t cols,
           bool single_pullers)
{
    std::vector<BitVector> rows(nrows, BitVector(cols));
    for (std::size_t c = 0; c < cols; ++c) {
        std::uint64_t kind = rng.below(single_pullers ? 5 : 2);
        std::size_t lone = rng.below(nrows);
        for (std::size_t r = 0; r < nrows; ++r) {
            rows[r].set(c, kind == 0 || (kind == 2 && r != lone) ||
                               (kind == 3 && r == lone) ||
                               (kind == 4 && rng.below(2) != 0));
        }
    }
    return rows;
}

/** One activation of a random array by the word model and the oracle. */
struct OracleCase
{
    BitcellArray::DigitalSense got;
    OracleSense want;
    BitcellArray array;            ///< cells after activateWords
    std::vector<BitVector> cells;  ///< cells after the oracle
};

/**
 * Run @p check on each case of the sweep: every width in @p widths,
 * 1-64 active rows plus one idle row no activation may touch,
 * underdrive below, at and above the disturb threshold, with and
 * without single-puller columns.
 */
template <typename Check>
void
sweepOracle(std::initializer_list<std::size_t> widths, Check check)
{
    Rng rng(2017);
    for (std::size_t cols : widths) {
        for (std::size_t n : {1u, 2u, 3u, 4u, 8u, 16u, 32u, 63u, 64u}) {
            for (double underdrive : {0.7, 0.85, 0.95}) {
                for (bool singles : {true, false}) {
                    SCOPED_TRACE(::testing::Message()
                                 << cols << " cols, " << n
                                 << " active rows, underdrive "
                                 << underdrive << ", single pullers "
                                 << singles);
                    auto cells = oracleRows(rng, n + 1, cols, singles);
                    BitcellArray array(n + 1, cols);
                    for (std::size_t r = 0; r <= n; ++r)
                        array.writeRow(r, cells[r]);
                    std::vector<std::size_t> active(n);
                    std::iota(active.begin(), active.end(), 0);
                    auto got = array.activateWords(active, underdrive,
                                                   /*track_margin=*/true);
                    auto want = oracleActivate(cells, active, underdrive);
                    check(OracleCase{std::move(got), std::move(want),
                                     std::move(array), std::move(cells)});
                }
            }
        }
    }
}

void
expectSensesMatch(const OracleCase &c)
{
    EXPECT_TRUE(c.got.andBits == c.want.andBits) << "BL (AND) sense";
    EXPECT_TRUE(c.got.norBits == c.want.norBits) << "BLB (NOR) sense";
}

void
expectCellsMatch(const OracleCase &c)
{
    for (std::size_t r = 0; r < c.cells.size(); ++r)
        EXPECT_TRUE(c.array.row(r) == c.cells[r]) << "cells of row " << r;
}

SubArrayParams
smallParams()
{
    SubArrayParams p;
    p.rows = 16;
    p.cols = 1024;  // two block partitions
    return p;
}

Block
randomBlock(Rng &rng)
{
    Block b;
    for (auto &byte : b)
        byte = static_cast<std::uint8_t>(rng.below(256));
    return b;
}

/** Columns of block partition @p p of a full sub-array row. */
Block
partitionOf(const BitVector &row, std::size_t p)
{
    Block b;
    auto bytes = row.toBytes();
    std::copy_n(bytes.begin() + p * kBlockSize, kBlockSize, b.begin());
    return b;
}

// ---------------------------------------------------------------------
// The word model against the oracle.
// ---------------------------------------------------------------------

TEST(SenseAmp, DifferentialReadsStoredBit)
{
    // One raised word-line leaves BL and BLB at 1.0 and 0.4, so the
    // differential read equals the BL sense: the stored bits. The BLB
    // sense is their complement, which cc_not drives back.
    SubArray sa(smallParams());
    Rng rng(5);
    std::vector<BitVector> cells = oracleRows(rng, 1, 1024, true);
    for (std::size_t p = 0; p < sa.partitions(); ++p)
        sa.write({p, 0}, partitionOf(cells[0], p));
    OracleSense want =
        oracleActivate(cells, {0}, smallParams().wordlineUnderdrive);
    EXPECT_TRUE(want.andBits == cells[0]);
    EXPECT_TRUE(want.norBits == ~cells[0]);
    for (std::size_t p = 0; p < sa.partitions(); ++p) {
        EXPECT_EQ(sa.read({p, 0}), partitionOf(want.andBits, p));
        sa.opNot({p, 0}, {p, 1});
        EXPECT_EQ(sa.read({p, 1}), partitionOf(want.norBits, p));
    }
    auto raw = sa.rawActivate({0});
    EXPECT_EQ(raw.margin, want.margin);
}

TEST(SenseAmp, SingleEndedAgainstVref)
{
    sweepOracle({64, 512, 1024}, [](const OracleCase &c) {
        expectSensesMatch(c);
        expectCellsMatch(c);
    });
}

TEST(SenseAmp, MarginIsWorstCaseDistanceToVref)
{
    bool saw_single = false, saw_full = false;
    sweepOracle({64, 512, 1024}, [&](const OracleCase &c) {
        EXPECT_EQ(c.got.margin, c.want.margin);
        saw_single |= c.want.margin < 0.25;
        saw_full |= c.want.margin == 0.5;
    });
    EXPECT_TRUE(saw_single && saw_full) << "sweep misses a margin level";
}

TEST(SenseAmp, MonteCarloFailureRateBehaviour)
{
    Rng rng(3);
    // Huge margin, tiny sigma: no failures.
    EXPECT_DOUBLE_EQ(monteCarloFailureRate(0.4, 0.01, 50000, rng), 0.0);
    // Margin equal to sigma: ~32% of Gaussian mass beyond 1 sigma.
    double fail = monteCarloFailureRate(0.05, 0.05, 200000, rng);
    EXPECT_NEAR(fail, 0.317, 0.01);
}

TEST(ScalarVectorizedEdges, RowWidthNotMultipleOf64)
{
    // A 100-column array leaves 36 dead bits in the tail word; the word
    // model must keep them out of the senses, the margin and the disturb.
    sweepOracle({100}, [](const OracleCase &c) {
        expectSensesMatch(c);
        EXPECT_EQ(c.got.margin, c.want.margin);
        expectCellsMatch(c);
    });
}

TEST(ScalarVectorizedEdges, CmpDifferenceStraddlingWordBoundary)
{
    // Operands equal everywhere except a 16-bit difference spanning
    // bytes 7..8 — the boundary between packed words 0 and 1. Word 0
    // and word 1 must BOTH report unequal.
    SubArray sa(smallParams());
    Rng rng(1234);
    Block a = randomBlock(rng);
    Block b = a;
    b[7] ^= 0x80;
    b[8] ^= 0x01;
    sa.write({0, 0}, a);
    sa.write({0, 1}, b);
    CmpResult v = sa.opCmp({0, 0}, {0, 1});
    EXPECT_FALSE(v.allEqual);
    EXPECT_EQ(v.wordEqualMask & 0x3u, 0u);          // words 0,1 unequal
    EXPECT_EQ(v.wordEqualMask >> 2,
              (~std::uint64_t{0} >> 2) & 0x3f);     // words 2..7 equal
}

TEST(ScalarVectorizedEdges, SearchKeyMatchOnEveryWordOffset)
{
    // The key equals the data in exactly one 64-bit word per trial,
    // sweeping all eight word positions: each mask bit must fire.
    for (std::size_t w = 0; w < kWordsPerBlock; ++w) {
        SubArray sa(smallParams());
        Rng rng(4321 + w);
        Block data = randomBlock(rng);
        Block key = randomBlock(rng);
        std::copy_n(data.begin() + w * 8, 8, key.begin() + w * 8);
        sa.write({0, 0}, key);
        sa.write({0, 1}, data);
        EXPECT_EQ(sa.opSearch({0, 0}, {0, 1}).wordEqualMask,
                  std::uint64_t{1} << w)
            << "word " << w;
    }
}

// ---------------------------------------------------------------------
// Seeded catalogs pinned to recorded digests.
// ---------------------------------------------------------------------

/** Feeds every observable of a sub-array op sequence to a digest. */
struct Recorder
{
    SubArray &sa;
    test::Digest d;

    void
    read(const BlockLoc &loc)
    {
        Block b = sa.read(loc);
        d.bytes(b.data(), b.size());
    }
};

/** The full op catalog (and/or/xor/nor/not/copy/buz/cmp/search/clmul)
 *  on a fresh sub-array. */
std::uint64_t
catalogDigest(std::uint64_t seed)
{
    SubArray sa(smallParams());
    Rng rng(seed);
    Recorder rec{sa, {}};
    for (int trial = 0; trial < 6; ++trial) {
        sa.write({0, 0}, randomBlock(rng));
        sa.write({0, 1}, randomBlock(rng));

        sa.opAnd({0, 0}, {0, 1}, {0, 2});
        rec.read({0, 2});
        sa.opOr({0, 0}, {0, 1}, {0, 3});
        rec.read({0, 3});
        sa.opXor({0, 0}, {0, 1}, {0, 4});
        rec.read({0, 4});
        sa.opNor({0, 0}, {0, 1}, {0, 5});
        rec.read({0, 5});
        sa.opNot({0, 0}, {0, 6});
        rec.read({0, 6});
        sa.opCopy({0, 1}, {0, 7});
        rec.read({0, 7});
        sa.opBuz({0, 7});
        rec.read({0, 7});

        for (const CmpResult &cmp :
             {sa.opCmp({0, 0}, {0, 1}), sa.opSearch({0, 1}, {0, 0})}) {
            rec.d.u64(cmp.wordEqualMask);
            rec.d.u64(cmp.allEqual);
        }
        ClmulResult cl = sa.opClmul({0, 0}, {0, 1}, 128);
        for (bool p : cl.parities)
            rec.d.u64(p);

        // Sources must survive.
        rec.read({0, 0});
        rec.read({0, 1});
    }
    return rec.d.h;
}

/** The bit-serial class (add/sub/mul/compare) at widths 1, 8, 17, 32. */
std::uint64_t
bitSerialDigest(std::uint64_t seed)
{
    SubArrayParams sp = smallParams();
    sp.rows = 128;  // three 32-slice operand stacks
    SubArray sa(sp);
    Rng rng(seed);
    Recorder rec{sa, {}};
    for (std::size_t w : {1u, 8u, 17u, 32u}) {
        BitSerialOperand a{0, 0}, b{0, 32}, dst{0, 64};
        for (std::size_t k = 0; k < w; ++k) {
            sa.write({a.partition, a.row0 + k}, randomBlock(rng));
            sa.write({b.partition, b.row0 + k}, randomBlock(rng));
        }
        auto read_stack = [&](const BitSerialOperand &o) {
            for (std::size_t k = 0; k < w; ++k)
                rec.read({o.partition, o.row0 + k});
        };

        sa.opBitSerialAdd(a, b, dst, w);
        read_stack(dst);
        sa.opBitSerialSub(a, b, dst, w);
        read_stack(dst);
        sa.opBitSerialMul(a, b, dst, w);
        read_stack(dst);
        for (bool is_signed : {false, true}) {
            BitSerialCmpResult cmp =
                sa.opBitSerialCompare(a, b, w, is_signed);
            for (const BitVector *mask : {&cmp.lt, &cmp.gt, &cmp.eq}) {
                auto bytes = mask->toBytes();
                rec.d.bytes(bytes.data(), bytes.size());
            }
        }
        // Sources must survive.
        read_stack(a);
        read_stack(b);
    }
    return rec.d.h;
}

/** Digests recorded per seed. The sub-array's margin-failure flag,
 *  always 0 in these fault-free catalogs, was hashed after every read
 *  until faults entered only at the controller, and each op's delay and
 *  energy until the sub-array lost its cost model; these are the
 *  original digests with those hashes removed, recorded against the
 *  library that still computed both. */
struct Pins
{
    std::uint64_t seed;
    std::uint64_t catalog, bitSerial;
};

constexpr Pins kPins[] = {
    {1, 0x5440e5d25164320b, 0x673b0b5e65f3fbce},
    {7, 0x27c04d05460efa4c, 0xad93868ac71ac022},
    {42, 0x16dc16f29e7deaa8, 0xc8b278c244fff991},
    {0xfeed, 0xce4a69f5eb130a7e, 0xd0f81e437e42516b},
};

class ScalarVectorized : public ::testing::TestWithParam<std::uint64_t>
{
  protected:
    const Pins &
    pins() const
    {
        for (const Pins &p : kPins) {
            if (p.seed == GetParam())
                return p;
        }
        throw std::logic_error("no digests recorded for this seed");
    }
};

void
expectDigest(std::uint64_t got, std::uint64_t pinned)
{
    EXPECT_EQ(got, pinned) << std::hex << "digest 0x" << got;
}

TEST_P(ScalarVectorized, FaultFreeCatalogBitIdentical)
{
    expectDigest(catalogDigest(GetParam()), pins().catalog);
}

TEST_P(ScalarVectorized, BitSerialCatalogBitIdentical)
{
    expectDigest(bitSerialDigest(GetParam()), pins().bitSerial);
}

TEST_P(ScalarVectorized, RawMultiRowDisturbBitIdentical)
{
    // rawActivate against the oracle on a two-partition sub-array: four
    // rows at an underdrive above the disturb threshold, then 65 rows at
    // the default underdrive, one more than maxSafeActiveRows, where the
    // underdrive no longer protects the cells.
    Rng rng(GetParam() ^ 0xd15707bULL);
    for (auto [underdrive, n] : {std::pair{0.95, 4u}, std::pair{0.7, 65u}}) {
        SubArrayParams p = smallParams();
        p.rows = 128;
        p.wordlineUnderdrive = underdrive;
        SubArray sa(p);
        auto cells = oracleRows(rng, p.rows, p.cols, true);
        for (std::size_t r = 0; r < p.rows; ++r)
            for (std::size_t part = 0; part < sa.partitions(); ++part)
                sa.write({part, r}, partitionOf(cells[r], part));

        std::vector<std::size_t> active(n);
        std::iota(active.begin(), active.end(), 0);
        SubArray::RawSense got = sa.rawActivate(active);
        OracleSense want = oracleActivate(
            cells, active, n > p.maxSafeActiveRows ? 1.0 : underdrive);
        EXPECT_TRUE(got.andResult == want.andBits) << n << " rows";
        EXPECT_TRUE(got.norResult == want.norBits) << n << " rows";
        EXPECT_EQ(got.margin, want.margin) << n << " rows";
        for (std::size_t r = 0; r < p.rows; ++r)
            for (std::size_t part = 0; part < sa.partitions(); ++part)
                EXPECT_EQ(sa.read({part, r}), partitionOf(cells[r], part))
                    << n << " rows: row " << r << " partition " << part;
    }
}

INSTANTIATE_TEST_SUITE_P(FixedSeeds, ScalarVectorized,
                         ::testing::Values(1u, 7u, 42u, 0xfeedu));

/**
 * The CC controller over the real hierarchy with the fault ladder armed
 * at aggressive seeded rates: per-instruction results and fault
 * accounting, then the memory image.
 */
std::uint64_t
controllerDigest()
{
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
    std::vector<std::uint8_t> a(2048), b(2048);
    for (auto &x : a)
        x = static_cast<std::uint8_t>(rng.below(256));
    for (auto &x : b)
        x = static_cast<std::uint8_t>(rng.below(256));
    hier.memory().writeBytes(0x10000, a.data(), a.size());
    hier.memory().writeBytes(0x20000, b.data(), b.size());

    test::Digest d;
    for (const cc::CcInstruction &in :
         {cc::CcInstruction::logicalAnd(0x10000, 0x20000, 0x30000, 2048),
          cc::CcInstruction::logicalXor(0x30000, 0x20000, 0x40000, 2048),
          cc::CcInstruction::logicalNot(0x40000, 0x50000, 2048),
          cc::CcInstruction::copy(0x50000, 0x60000, 2048),
          cc::CcInstruction::cmp(0x30000, 0x40000, 512),
          cc::CcInstruction::search(0x10000, 0x20000, 512),
          cc::CcInstruction::buz(0x60000, 2048)}) {
        auto res = ctrl.execute(0, in);
        d.u64(res.faultRetries);
        d.u64(res.faultDegradedOps);
        d.u64(res.faultRiscRecoveries);
        d.u64(res.result);
    }
    for (Addr base : {0x30000u, 0x40000u, 0x50000u, 0x60000u}) {
        for (std::size_t off = 0; off < 2048; off += kBlockSize) {
            Block blk = hier.debugRead(base + off);
            d.bytes(blk.data(), blk.size());
        }
    }
    return d.h;
}

TEST(ScalarVectorizedController, FaultLadderRunBitIdentical)
{
    expectDigest(controllerDigest(), 0xf0ef2f55830bb793);
}

} // namespace
} // namespace ccache::sram
