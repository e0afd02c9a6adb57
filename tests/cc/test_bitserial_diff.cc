/**
 * @file
 * Differential battery for the bit-serial arithmetic class (cc_add /
 * cc_sub / cc_mul / cc_lt / cc_gt / cc_eq): every op runs through the
 * circuit-level sram::SubArray carry-latch path AND through the CC
 * controller over the real hierarchy, and is compared lane-for-lane
 * against an independent uint64_t/int64_t reference model at widths
 * 1..32, over seeded random vectors plus directed edge cases (carry
 * ripple, overflow wraparound, 0 / -1 / MSB-set operands). The
 * near-place-forced, ECC-active and fault-injected variants must stay
 * bit-identical to the reference: the fault ladder may change *where*
 * an op executes, never its result.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cache/hierarchy.hh"
#include "cc/bitserial.hh"
#include "cc/cc_controller.hh"
#include "common/rng.hh"
#include "sram/subarray.hh"

namespace ccache::cc {
namespace {

using Lanes = std::vector<std::uint64_t>;

constexpr std::size_t kLanes = 512;       // one 64-byte slice block
constexpr std::size_t kSliceBytes = 64;

std::uint64_t
widthMask(std::size_t w)
{
    return w == 64 ? ~0ULL : (1ULL << w) - 1;
}

/** Sign-extend the low @p w bits of @p v. */
std::int64_t
signExtend(std::uint64_t v, std::size_t w)
{
    std::uint64_t m = 1ULL << (w - 1);
    return static_cast<std::int64_t>(((v & widthMask(w)) ^ m)) -
        static_cast<std::int64_t>(m);
}

// ---------------------------------------------------------------------
// The reference model: plain uint64_t/int64_t lane loops, sharing no
// code with BitSerialCompute or the sub-array circuit.
// ---------------------------------------------------------------------

Lanes
refArith(CcOpcode op, const Lanes &a, const Lanes &b, std::size_t w)
{
    Lanes out(a.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        std::uint64_t r = 0;
        switch (op) {
          case CcOpcode::Add: r = a[i] + b[i]; break;
          case CcOpcode::Sub: r = a[i] - b[i]; break;
          case CcOpcode::Mul: r = a[i] * b[i]; break;
          default: ADD_FAILURE() << "not an arith op"; break;
        }
        out[i] = r & widthMask(w);
    }
    return out;
}

/** One predicate lane (0/1) per input lane. */
Lanes
refCompare(CcOpcode op, const Lanes &a, const Lanes &b, std::size_t w,
           bool is_signed)
{
    Lanes out(a.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        bool r = false;
        if (op == CcOpcode::Eq) {
            r = (a[i] & widthMask(w)) == (b[i] & widthMask(w));
        } else if (is_signed) {
            std::int64_t sa = signExtend(a[i], w);
            std::int64_t sb = signExtend(b[i], w);
            r = op == CcOpcode::Lt ? sa < sb : sa > sb;
        } else {
            std::uint64_t ua = a[i] & widthMask(w);
            std::uint64_t ub = b[i] & widthMask(w);
            r = op == CcOpcode::Lt ? ua < ub : ua > ub;
        }
        out[i] = r ? 1 : 0;
    }
    return out;
}

// ---------------------------------------------------------------------
// Lane vectors <-> bit-slice images.
// ---------------------------------------------------------------------

/** Slice image of @p vals: slice k at offset k * kSliceBytes. */
std::vector<std::uint8_t>
toSlices(const Lanes &vals, std::size_t w)
{
    std::vector<std::uint8_t> img(w * kSliceBytes, 0);
    for (std::size_t l = 0; l < vals.size(); ++l)
        for (std::size_t k = 0; k < w; ++k)
            if ((vals[l] >> k) & 1)
                img[k * kSliceBytes + l / 8] |=
                    static_cast<std::uint8_t>(1u << (l % 8));
    return img;
}

Lanes
fromSlices(const std::vector<std::uint8_t> &img, std::size_t w)
{
    Lanes vals(kLanes, 0);
    for (std::size_t l = 0; l < kLanes; ++l)
        for (std::size_t k = 0; k < w; ++k)
            if ((img[k * kSliceBytes + l / 8] >> (l % 8)) & 1)
                vals[l] |= std::uint64_t{1} << k;
    return vals;
}

Lanes
randomLanes(Rng &rng, std::size_t w)
{
    Lanes vals(kLanes);
    for (auto &v : vals)
        v = rng.next() & widthMask(w);
    return vals;
}

/** Directed operand pairs: carry ripple, wraparound, 0 / -1 / MSB-set. */
std::vector<std::pair<std::uint64_t, std::uint64_t>>
directedPairs(std::size_t w)
{
    std::uint64_t ones = widthMask(w);
    std::uint64_t msb = 1ULL << (w - 1);
    return {
        {0, 0},          {0, ones},      {ones, 1},    // full carry ripple
        {ones, ones},                                  // -1 * -1, overflow
        {msb, msb},      {msb, ones},    {msb, 1},     // MSB-set (signed min)
        {ones >> 1, 1},                                // max-positive + 1
        {1, ones >> 1},  {msb | 1, msb | 1},
    };
}

/** Lane vector cycling through the directed pairs. */
std::pair<Lanes, Lanes>
directedLanes(std::size_t w)
{
    auto pairs = directedPairs(w);
    Lanes a(kLanes), b(kLanes);
    for (std::size_t l = 0; l < kLanes; ++l) {
        a[l] = pairs[l % pairs.size()].first;
        b[l] = pairs[l % pairs.size()].second;
    }
    return {a, b};
}

const std::size_t kWidths[] = {1, 2, 3, 7, 8, 15, 16, 31, 32};

// ---------------------------------------------------------------------
// Layer 0: the software compute kernel vs the reference model.
// ---------------------------------------------------------------------

TEST(BitSerialKernel, ArithMatchesReferenceAtAllWidths)
{
    Rng rng(0xb17);
    for (std::size_t w : kWidths) {
        for (CcOpcode op :
             {CcOpcode::Add, CcOpcode::Sub, CcOpcode::Mul}) {
            Lanes a = randomLanes(rng, w);
            Lanes b = randomLanes(rng, w);
            auto [da, db] = directedLanes(w);
            // Mix directed pairs into the first half of the vector.
            for (std::size_t l = 0; l < kLanes / 2; ++l) {
                a[l] = da[l];
                b[l] = db[l];
            }
            auto sa = toSlices(a, w), sb = toSlices(b, w);
            std::vector<std::uint8_t> dst(w * kSliceBytes, 0xee);
            switch (op) {
              case CcOpcode::Add:
                BitSerialCompute::add(dst.data(), sa.data(), sb.data(),
                                      kSliceBytes, w);
                break;
              case CcOpcode::Sub:
                BitSerialCompute::sub(dst.data(), sa.data(), sb.data(),
                                      kSliceBytes, w);
                break;
              default:
                BitSerialCompute::mul(dst.data(), sa.data(), sb.data(),
                                      kSliceBytes, w);
                break;
            }
            EXPECT_EQ(fromSlices(dst, w), refArith(op, a, b, w))
                << toString(op) << " width " << w;
        }
    }
}

TEST(BitSerialKernel, CompareMatchesReferenceAtAllWidths)
{
    Rng rng(0xc03);
    for (std::size_t w : kWidths) {
        for (CcOpcode op :
             {CcOpcode::Lt, CcOpcode::Gt, CcOpcode::Eq}) {
            for (bool is_signed : {false, true}) {
                Lanes a = randomLanes(rng, w);
                Lanes b = randomLanes(rng, w);
                auto [da, db] = directedLanes(w);
                for (std::size_t l = 0; l < kLanes / 2; ++l) {
                    a[l] = da[l];
                    b[l] = db[l];
                }
                // Force exact ties into some lanes.
                for (std::size_t l = 0; l < kLanes; l += 7)
                    b[l] = a[l];
                auto sa = toSlices(a, w), sb = toSlices(b, w);
                std::vector<std::uint8_t> dst(kSliceBytes, 0xee);
                BitSerialCompute::compare(op, dst.data(), sa.data(),
                                          sb.data(), kSliceBytes, w,
                                          is_signed);
                EXPECT_EQ(fromSlices(dst, 1),
                          refCompare(op, a, b, w, is_signed))
                    << toString(op) << " width " << w << " signed "
                    << is_signed;
            }
        }
    }
}

TEST(BitSerialKernel, AddSubRoundTripAndAliasing)
{
    Rng rng(0xa11a5);
    for (std::size_t w : {8u, 32u}) {
        Lanes a = randomLanes(rng, w);
        Lanes b = randomLanes(rng, w);
        auto sa = toSlices(a, w), sb = toSlices(b, w);
        // dst aliases a: a += b, then a -= b restores the original.
        BitSerialCompute::add(sa.data(), sa.data(), sb.data(),
                              kSliceBytes, w);
        EXPECT_EQ(fromSlices(sa, w), refArith(CcOpcode::Add, a, b, w));
        BitSerialCompute::sub(sa.data(), sa.data(), sb.data(),
                              kSliceBytes, w);
        EXPECT_EQ(fromSlices(sa, w), a) << "width " << w;
    }
}

// ---------------------------------------------------------------------
// Layer 1: the sub-array carry-latch circuit vs the reference model.
// ---------------------------------------------------------------------

class BitSerialSubArray : public ::testing::TestWithParam<std::uint64_t>
{
  protected:
    BitSerialSubArray() : sa([] {
        sram::SubArrayParams p;
        p.rows = 128;
        p.cols = 512;  // one 64-byte block partition = 512 lanes
        return p;
    }())
    {
    }

    void
    writeOperand(const sram::BitSerialOperand &o, const Lanes &vals,
                 std::size_t w)
    {
        auto img = toSlices(vals, w);
        for (std::size_t k = 0; k < w; ++k) {
            Block blk{};
            std::copy_n(img.begin() + k * kSliceBytes, kSliceBytes,
                        blk.begin());
            sa.write({o.partition, o.row0 + k}, blk);
        }
    }

    Lanes
    readOperand(const sram::BitSerialOperand &o, std::size_t w)
    {
        std::vector<std::uint8_t> img(w * kSliceBytes, 0);
        for (std::size_t k = 0; k < w; ++k) {
            Block blk = sa.read({o.partition, o.row0 + k});
            std::copy_n(blk.begin(), kSliceBytes,
                        img.begin() + k * kSliceBytes);
        }
        return fromSlices(img, w);
    }

    sram::SubArray sa;
};

TEST_P(BitSerialSubArray, ArithMatchesReference)
{
    Rng rng(GetParam());
    for (std::size_t w : {1u, 5u, 8u, 16u, 32u}) {
        sram::BitSerialOperand a{0, 0}, b{0, 32}, dst{0, 64};
        Lanes va = randomLanes(rng, w);
        Lanes vb = randomLanes(rng, w);
        auto [da, db] = directedLanes(w);
        for (std::size_t l = 0; l < kLanes / 2; ++l) {
            va[l] = da[l];
            vb[l] = db[l];
        }
        writeOperand(a, va, w);
        writeOperand(b, vb, w);

        sa.opBitSerialAdd(a, b, dst, w);
        EXPECT_EQ(readOperand(dst, w),
                  refArith(CcOpcode::Add, va, vb, w)) << "width " << w;
        sa.opBitSerialSub(a, b, dst, w);
        EXPECT_EQ(readOperand(dst, w),
                  refArith(CcOpcode::Sub, va, vb, w)) << "width " << w;
        sa.opBitSerialMul(a, b, dst, w);
        EXPECT_EQ(readOperand(dst, w),
                  refArith(CcOpcode::Mul, va, vb, w)) << "width " << w;

        // Sources must be intact (bit-line ops sense, they don't write
        // the operand rows).
        EXPECT_EQ(readOperand(a, w), va);
        EXPECT_EQ(readOperand(b, w), vb);

        for (bool is_signed : {false, true}) {
            auto cmp = sa.opBitSerialCompare(a, b, w, is_signed);
            for (std::size_t l = 0; l < kLanes; ++l) {
                SCOPED_TRACE(l);
                auto lt = refCompare(CcOpcode::Lt, va, vb, w, is_signed);
                auto gt = refCompare(CcOpcode::Gt, va, vb, w, is_signed);
                auto eq = refCompare(CcOpcode::Eq, va, vb, w, is_signed);
                ASSERT_EQ(cmp.lt.get(l), lt[l] != 0);
                ASSERT_EQ(cmp.gt.get(l), gt[l] != 0);
                ASSERT_EQ(cmp.eq.get(l), eq[l] != 0);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(FixedSeeds, BitSerialSubArray,
                         ::testing::Values(11u, 29u, 0xfeedu));

// ---------------------------------------------------------------------
// Layer 2: the CC controller over the real hierarchy. Operands live in
// the transposed page-stride layout (slice k at base + k*kSliceStride).
// ---------------------------------------------------------------------

enum class Variant { InPlace, NearPlace, EccActive, Faulty };

/** A hierarchy and controller under one variant, with helpers for the
 *  transposed layout. */
struct BitSerialRig
{
    explicit BitSerialRig(Variant v)
        : hier(cache::HierarchyParams{}, &em, &stats),
          ctrl(hier, &em, &stats, makeParams(v))
    {
    }

    static CcControllerParams
    makeParams(Variant v)
    {
        CcControllerParams p;
        switch (v) {
          case Variant::InPlace:
            p.verifyCircuit = true;  // cross-check the carry-latch model
            break;
          case Variant::NearPlace:
            p.forceNearPlace = true;
            break;
          case Variant::EccActive:
            p.faults.enabled = true;
            p.faults.seed = 77;
            break;
          case Variant::Faulty:
            // Detected-fault soup: margin collapses on dual-row senses
            // plus SECDED-correctable/detectable transients. The ladder
            // must route around them (retry, near-place, risc) with the
            // results staying bit-exact.
            p.faults.enabled = true;
            p.faults.seed = 1234;
            p.faults.marginFailPerDualRowOp = 0.05;
            p.faults.transientPerBlockOp = 0.02;
            break;
        }
        return p;
    }

    void
    writeOperand(Addr base, const Lanes &vals, std::size_t w)
    {
        auto img = toSlices(vals, w);
        for (std::size_t k = 0; k < w; ++k)
            hier.memory().writeBytes(CcInstruction::sliceAddr(base, k),
                                     img.data() + k * kSliceBytes,
                                     kSliceBytes);
    }

    Lanes
    readOperand(Addr base, std::size_t w)
    {
        std::vector<std::uint8_t> img(w * kSliceBytes, 0);
        for (std::size_t k = 0; k < w; ++k) {
            Block blk =
                hier.debugRead(CcInstruction::sliceAddr(base, k));
            std::copy_n(blk.begin(), kSliceBytes,
                        img.begin() + k * kSliceBytes);
        }
        return fromSlices(img, w);
    }

    energy::EnergyModel em;
    StatRegistry stats;
    cache::Hierarchy hier;
    CcController ctrl;
};

class ControllerBitSerial : public ::testing::TestWithParam<Variant>,
                            protected BitSerialRig
{
  protected:
    ControllerBitSerial() : BitSerialRig(GetParam()) {}
};

TEST_P(ControllerBitSerial, ArithMatchesReferenceAcrossWidths)
{
    Rng rng(0xd1ff);
    std::size_t iteration = 0;
    for (std::size_t w : kWidths) {
        // Fresh page-aligned bases per width: memory writes do not
        // invalidate lines staged by earlier iterations.
        Addr base = 0x1000000 + 0x400000 * iteration++;
        Addr a = base, b = base + 0x100000, d = base + 0x200000;
        Lanes va = randomLanes(rng, w);
        Lanes vb = randomLanes(rng, w);
        auto [da, db] = directedLanes(w);
        for (std::size_t l = 0; l < kLanes / 2; ++l) {
            va[l] = da[l];
            vb[l] = db[l];
        }
        writeOperand(a, va, w);
        writeOperand(b, vb, w);

        auto run = [&](CcInstruction instr, CcOpcode op) {
            auto res = ctrl.execute(0, instr);
            if (GetParam() == Variant::NearPlace) {
                EXPECT_EQ(res.inPlaceOps, 0u);
                EXPECT_GT(res.nearPlaceOps, 0u);
            }
            EXPECT_EQ(readOperand(d, w), refArith(op, va, vb, w))
                << instr.toString();
        };

        run(CcInstruction::add(a, b, d, kSliceBytes, w), CcOpcode::Add);
        run(CcInstruction::sub(a, b, d, kSliceBytes, w), CcOpcode::Sub);
        run(CcInstruction::mul(a, b, d, kSliceBytes, w), CcOpcode::Mul);

        // Sources survive every op.
        EXPECT_EQ(readOperand(a, w), va);
        EXPECT_EQ(readOperand(b, w), vb);
    }
}

TEST_P(ControllerBitSerial, CompareMatchesReferenceAcrossWidths)
{
    Rng rng(0xcafe);
    std::size_t iteration = 0;
    for (std::size_t w : {1u, 4u, 8u, 16u, 32u}) {
        Addr base = 0x8000000 + 0x400000 * iteration++;
        Addr a = base, b = base + 0x100000, d = base + 0x200000;
        Lanes va = randomLanes(rng, w);
        Lanes vb = randomLanes(rng, w);
        for (std::size_t l = 0; l < kLanes; l += 5)
            vb[l] = va[l];  // planted ties
        writeOperand(a, va, w);
        writeOperand(b, vb, w);

        struct Case
        {
            CcInstruction instr;
            CcOpcode op;
            bool is_signed;
        };
        for (const Case &c : {
                 Case{CcInstruction::cmpLt(a, b, d, kSliceBytes, w,
                                           false),
                      CcOpcode::Lt, false},
                 Case{CcInstruction::cmpLt(a, b, d, kSliceBytes, w,
                                           true),
                      CcOpcode::Lt, true},
                 Case{CcInstruction::cmpGt(a, b, d, kSliceBytes, w,
                                           false),
                      CcOpcode::Gt, false},
                 Case{CcInstruction::cmpGt(a, b, d, kSliceBytes, w,
                                           true),
                      CcOpcode::Gt, true},
                 Case{CcInstruction::cmpEq(a, b, d, kSliceBytes, w),
                      CcOpcode::Eq, false},
             }) {
            ctrl.execute(0, c.instr);
            EXPECT_EQ(readOperand(d, 1),
                      refCompare(c.op, va, vb, w, c.is_signed))
                << c.instr.toString();
        }
    }
}

TEST_P(ControllerBitSerial, MultiGroupOperandsComputeEveryLaneGroup)
{
    // 4 blocks per slice row = 2048 lanes spread over 4 partitions.
    const std::size_t sb = 4 * kSliceBytes;
    const std::size_t w = 16;
    Rng rng(0x9009);
    Addr a = 0x20000000, b = 0x20100000, d = 0x20200000;

    std::vector<Lanes> va(4), vb(4);
    for (std::size_t g = 0; g < 4; ++g) {
        va[g] = randomLanes(rng, w);
        vb[g] = randomLanes(rng, w);
        auto ia = toSlices(va[g], w), ib = toSlices(vb[g], w);
        for (std::size_t k = 0; k < w; ++k) {
            Addr off = k * kSliceStride + g * kBlockSize;
            hier.memory().writeBytes(a + off, ia.data() + k * kSliceBytes,
                                     kSliceBytes);
            hier.memory().writeBytes(b + off, ib.data() + k * kSliceBytes,
                                     kSliceBytes);
        }
    }

    auto res = ctrl.execute(0, CcInstruction::add(a, b, d, sb, w));
    EXPECT_EQ(res.blockOps, 4 * BitSerialCompute::steps(CcOpcode::Add, w));
    for (std::size_t g = 0; g < 4; ++g) {
        std::vector<std::uint8_t> img(w * kSliceBytes, 0);
        for (std::size_t k = 0; k < w; ++k) {
            Block blk =
                hier.debugRead(d + k * kSliceStride + g * kBlockSize);
            std::copy_n(blk.begin(), kSliceBytes,
                        img.begin() + k * kSliceBytes);
        }
        EXPECT_EQ(fromSlices(img, w),
                  refArith(CcOpcode::Add, va[g], vb[g], w))
            << "group " << g;
    }
}

INSTANTIATE_TEST_SUITE_P(Variants, ControllerBitSerial,
                         ::testing::Values(Variant::InPlace,
                                           Variant::NearPlace,
                                           Variant::EccActive,
                                           Variant::Faulty),
                         [](const auto &info) {
                             switch (info.param) {
                               case Variant::InPlace: return "InPlace";
                               case Variant::NearPlace: return "NearPlace";
                               case Variant::EccActive: return "EccActive";
                               case Variant::Faulty: return "Faulty";
                             }
                             return "Unknown";
                         });

// The ladder fires only at nonzero fault rates: the Faulty variant.
TEST(ControllerBitSerialFaulty, FaultLadderKeepsResultsExact)
{
    BitSerialRig rig(Variant::Faulty);
    // Long stream of Muls (the op with the most dual-row senses) so the
    // margin-fail rate forces retries, near-place degrades and risc
    // recoveries; every single result must still be exact.
    Rng rng(0xfa17);
    const std::size_t w = 16;
    bool any_degrade = false;
    for (int trial = 0; trial < 6; ++trial) {
        Addr base = 0x40000000 + 0x400000 * trial;
        Addr a = base, b = base + 0x100000, d = base + 0x200000;
        Lanes va = randomLanes(rng, w);
        Lanes vb = randomLanes(rng, w);
        rig.writeOperand(a, va, w);
        rig.writeOperand(b, vb, w);
        auto res = rig.ctrl.execute(
            0, CcInstruction::mul(a, b, d, kSliceBytes, w));
        any_degrade |= res.faultDegradedOps > 0 ||
            res.faultRiscRecoveries > 0 || res.faultRetries > 0;
        ASSERT_EQ(rig.readOperand(d, w),
                  refArith(CcOpcode::Mul, va, vb, w))
            << "trial " << trial;
    }
    // At these rates the ladder must have fired at least once; if not,
    // the test is vacuous and the rates need raising.
    EXPECT_TRUE(any_degrade);
}

// Cross-variant identity: the same bit-serial stream under every
// variant yields byte-identical memory images.
TEST(BitSerialCrossVariant, MemoryImagesBitIdentical)
{
    auto run_variant = [](Variant v) {
        energy::EnergyModel em;
        StatRegistry stats;
        cache::Hierarchy hier(cache::HierarchyParams{}, &em, &stats);
        CcControllerParams p;
        if (v == Variant::NearPlace)
            p.forceNearPlace = true;
        if (v == Variant::EccActive || v == Variant::Faulty) {
            p.faults.enabled = true;
            p.faults.seed = 99;
        }
        if (v == Variant::Faulty) {
            p.faults.marginFailPerDualRowOp = 0.1;
            p.faults.transientPerBlockOp = 0.05;
        }
        CcController ctrl(hier, &em, &stats, p);

        Rng rng(0x1d3a7);
        const std::size_t w = 8;
        Addr a = 0x1000000, b = 0x1100000, d = 0x1200000,
             e = 0x1300000;
        auto write = [&](Addr base, const Lanes &vals) {
            auto img = toSlices(vals, w);
            for (std::size_t k = 0; k < w; ++k)
                hier.memory().writeBytes(
                    CcInstruction::sliceAddr(base, k),
                    img.data() + k * kSliceBytes, kSliceBytes);
        };
        write(a, randomLanes(rng, w));
        write(b, randomLanes(rng, w));

        ctrl.execute(0, CcInstruction::mul(a, b, d, kSliceBytes, w));
        ctrl.execute(0, CcInstruction::add(d, a, e, kSliceBytes, w));
        ctrl.execute(0, CcInstruction::sub(e, b, e, kSliceBytes, w));
        ctrl.execute(0,
                     CcInstruction::cmpLt(e, a, d, kSliceBytes, w, true));

        std::vector<std::uint8_t> image;
        for (Addr base : {d, e})
            for (std::size_t k = 0; k < w; ++k) {
                Block blk =
                    hier.debugRead(CcInstruction::sliceAddr(base, k));
                image.insert(image.end(), blk.begin(), blk.end());
            }
        return image;
    };

    auto in_place = run_variant(Variant::InPlace);
    EXPECT_EQ(in_place, run_variant(Variant::NearPlace));
    EXPECT_EQ(in_place, run_variant(Variant::EccActive));
    EXPECT_EQ(in_place, run_variant(Variant::Faulty));
}

} // namespace
} // namespace ccache::cc
