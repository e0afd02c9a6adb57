/**
 * @file
 * Tests for the CC ISA: encodings, validation limits, page-span
 * detection and the exception handler's splitting (Table II, IV-A, IV-D).
 */

#include <gtest/gtest.h>

#include <initializer_list>
#include <set>
#include <string>

#include "cc/isa.hh"
#include "common/logging.hh"

namespace ccache::cc {
namespace {

/** Element-wise check of @p in's operand base addresses. */
void
expectOperands(const CcInstruction &in, std::initializer_list<Addr> want)
{
    const OperandAddrs got = in.operandAddrs();
    ASSERT_EQ(got.size(), want.size()) << in.toString();
    std::size_t i = 0;
    for (Addr a : want) {
        EXPECT_EQ(got[i], a) << in.toString() << " operand " << i;
        ++i;
    }
}

TEST(CcIsa, BuildersEncodeOperands)
{
    auto c = CcInstruction::copy(0x1000, 0x2000, 256);
    EXPECT_EQ(c.op, CcOpcode::Copy);
    expectOperands(c, {0x1000, 0x2000});

    auto z = CcInstruction::buz(0x3000, 128);
    expectOperands(z, {0x3000});

    auto a = CcInstruction::logicalAnd(0x1000, 0x2000, 0x3000, 512);
    expectOperands(a, {0x1000, 0x2000, 0x3000});
}

TEST(CcIsa, CcRClassification)
{
    EXPECT_TRUE(isCcR(CcOpcode::Cmp));
    EXPECT_TRUE(isCcR(CcOpcode::Search));
    EXPECT_FALSE(isCcR(CcOpcode::Copy));
    EXPECT_FALSE(isCcR(CcOpcode::And));
    EXPECT_FALSE(isCcR(CcOpcode::Buz));
}

TEST(CcIsa, NumAddrOperands)
{
    EXPECT_EQ(numAddrOperands(CcOpcode::Buz), 1u);
    EXPECT_EQ(numAddrOperands(CcOpcode::Copy), 2u);
    EXPECT_EQ(numAddrOperands(CcOpcode::Not), 2u);
    EXPECT_EQ(numAddrOperands(CcOpcode::Xor), 3u);
    EXPECT_EQ(numAddrOperands(CcOpcode::Clmul), 3u);
}

TEST(CcIsa, ValidateAcceptsLimits)
{
    EXPECT_NO_THROW(
        CcInstruction::copy(0x1000, 0x2000, kMaxVectorBytes).validate());
    EXPECT_NO_THROW(
        CcInstruction::cmp(0x1000, 0x2000, kMaxCmpBytes).validate());
}

TEST(CcIsa, ValidateRejectsBadEncodings)
{
    EXPECT_THROW(CcInstruction::copy(0x1000, 0x2000, 0).validate(),
                 FatalError);
    EXPECT_THROW(
        CcInstruction::copy(0x1000, 0x2000, kMaxVectorBytes + 64)
            .validate(),
        FatalError);
    // cmp/search result must fit a 64-bit register.
    EXPECT_THROW(CcInstruction::cmp(0x1000, 0x2000, 1024).validate(),
                 FatalError);
    EXPECT_THROW(CcInstruction::search(0x1000, 0x2000, 1024).validate(),
                 FatalError);
    // Operands must be block-aligned.
    EXPECT_THROW(CcInstruction::copy(0x1001, 0x2000, 64).validate(),
                 FatalError);
    // clmul width restricted to 64/128/256.
    EXPECT_THROW(
        CcInstruction::clmul(0x1000, 0x2000, 0x3000, 64, 32).validate(),
        FatalError);
    // Sizes must be word multiples.
    EXPECT_THROW(CcInstruction::copy(0x1000, 0x2000, 60).validate(),
                 FatalError);
}

/** The controller reads address 0 as "no operand": an operand there
 *  used to crash it (all operands 0) or drop the write (cc_copy
 *  0x1000 0x0 left address 0 unwritten). validate() rejects it in
 *  every operand slot of every opcode class. */
TEST(CcIsa, ValidateRejectsOperandAtAddressZero)
{
    EXPECT_THROW(CcInstruction::copy(0x1000, 0, 64).validate(),
                 FatalError);
    EXPECT_THROW(CcInstruction::copy(0, 0x1000, 64).validate(),
                 FatalError);
    EXPECT_THROW(CcInstruction::buz(0, 64).validate(), FatalError);
    EXPECT_THROW(CcInstruction::cmp(0x1000, 0, 64).validate(), FatalError);
    EXPECT_THROW(CcInstruction::search(0, 0x1000, 64).validate(),
                 FatalError);
    EXPECT_THROW(CcInstruction::logicalXor(0x1000, 0x2000, 0, 64).validate(),
                 FatalError);
    EXPECT_THROW(CcInstruction::logicalNot(0, 0x1000, 64).validate(),
                 FatalError);
    EXPECT_THROW(
        CcInstruction::clmul(0x1000, 0, 0x3000, 64, 64).validate(),
        FatalError);
    EXPECT_THROW(
        CcInstruction::add(0, 0x10000, 0x20000, 64, 8).validate(),
        FatalError);
    // Unused operand fields stay 0 and are not operands.
    EXPECT_NO_THROW(CcInstruction::buz(0x1000, 64).validate());
    EXPECT_NO_THROW(CcInstruction::cmp(0x1000, 0x2000, 64).validate());
}

/** A range that wraps past 2^64 would page-split into a piece at
 *  address 0: cc_copy 0x10000 0xfffffffffffff000 8192 wrote only its
 *  first page. A range that ends exactly at 2^64 stays legal. */
TEST(CcIsa, ValidateRejectsRangesWrappingPastTheTop)
{
    const Addr top_page = ~Addr{0} - kPageSize + 1;
    EXPECT_THROW(
        CcInstruction::copy(0x10000, top_page, 2 * kPageSize).validate(),
        FatalError);
    EXPECT_THROW(CcInstruction::buz(top_page + 64, kPageSize).validate(),
                 FatalError);
    EXPECT_THROW(
        CcInstruction::search(~Addr{0} - 63, 0x1000, 128).validate(),
        FatalError);
    EXPECT_THROW(
        CcInstruction::add(top_page, 0x10000, 0x40000, 64, 8).validate(),
        FatalError);
    EXPECT_NO_THROW(
        CcInstruction::copy(0x10000, top_page, kPageSize).validate());
}

TEST(CcIsa, SpansPageDetection)
{
    // Entirely within one page.
    EXPECT_FALSE(CcInstruction::copy(0x1000, 0x2000, 4096).spansPage());
    // Source starts mid-page and runs over the boundary.
    EXPECT_TRUE(CcInstruction::copy(0x1800, 0x2800, 4096).spansPage());
    // Only one operand spanning still counts.
    EXPECT_TRUE(CcInstruction::copy(0x1000, 0x2f00, 512).spansPage());
}

TEST(CcIsa, SplitAtPageBoundaries)
{
    // 4 KB copy starting at +0x800: splits into 2 KB + 2 KB.
    auto instr = CcInstruction::copy(0x1800, 0x2800, 4096);
    auto pieces = instr.splitAtPageBoundaries();
    ASSERT_EQ(pieces.size(), 2u);
    EXPECT_EQ(pieces[0].src1, 0x1800u);
    EXPECT_EQ(pieces[0].size, 2048u);
    EXPECT_EQ(pieces[1].src1, 0x2000u);
    EXPECT_EQ(pieces[1].dest, 0x3000u);
    EXPECT_EQ(pieces[1].size, 2048u);
    for (const auto &p : pieces)
        EXPECT_FALSE(p.spansPage());
}

TEST(CcIsa, SplitMisalignedOperands)
{
    // Operands at different page offsets force finer splitting.
    auto instr = CcInstruction::logicalXor(0x1c00, 0x2800, 0x3c00, 4096);
    auto pieces = instr.splitAtPageBoundaries();
    std::size_t total = 0;
    for (const auto &p : pieces) {
        EXPECT_FALSE(p.spansPage());
        EXPECT_EQ(p.src1, instr.src1 + total);
        EXPECT_EQ(p.src2, instr.src2 + total);
        EXPECT_EQ(p.dest, instr.dest + total);
        total += p.size;
    }
    EXPECT_EQ(total, instr.size);
    EXPECT_GE(pieces.size(), 2u);
}

TEST(CcIsa, SearchKeyDoesNotAdvanceOnSplit)
{
    auto instr = CcInstruction::search(0xfc0, 0x2000, 512);
    ASSERT_TRUE(instr.spansPage());
    auto pieces = instr.splitAtPageBoundaries();
    ASSERT_EQ(pieces.size(), 2u);
    EXPECT_EQ(pieces[0].src2, 0x2000u);
    EXPECT_EQ(pieces[1].src2, 0x2000u);
    EXPECT_EQ(pieces[0].size, 64u);
    EXPECT_EQ(pieces[1].size, 448u);
}

TEST(CcIsa, Disassembly)
{
    auto instr = CcInstruction::logicalAnd(0x1000, 0x2000, 0x3000, 256);
    EXPECT_EQ(instr.toString(), "cc_and 0x1000 0x2000 0x3000 256");
    auto cl = CcInstruction::clmul(0x40, 0x80, 0xc0, 64, 128);
    EXPECT_EQ(cl.toString(), "cc_clmul128 0x40 0x80 0xc0 64");
}

// ---------------------------------------------------------------------
// Exhaustive metadata coverage: every enumerator must have explicit
// toString / numAddrOperands / isCcR / bit-serial classifications — a
// silent default or fallthrough for a newly added opcode fails here.
// ---------------------------------------------------------------------

TEST(CcIsaExhaustive, EveryOpcodeHasDistinctName)
{
    static_assert(kNumCcOpcodes == 15u,
                  "new opcode: extend kAllCcOpcodes and these tests");
    std::set<std::string> names;
    for (CcOpcode op : kAllCcOpcodes) {
        std::string name = toString(op);
        EXPECT_NE(name, "?") << static_cast<int>(op);
        EXPECT_EQ(name.rfind("cc_", 0), 0u) << name;
        names.insert(name);
    }
    EXPECT_EQ(names.size(), kNumCcOpcodes);
}

TEST(CcIsaExhaustive, NumAddrOperandsCoversEveryOpcode)
{
    for (CcOpcode op : kAllCcOpcodes) {
        unsigned n = numAddrOperands(op);
        EXPECT_GE(n, 1u) << toString(op);
        EXPECT_LE(n, 3u) << toString(op);
    }
    // Exact expectations, opcode by opcode.
    EXPECT_EQ(numAddrOperands(CcOpcode::Buz), 1u);
    EXPECT_EQ(numAddrOperands(CcOpcode::Copy), 2u);
    EXPECT_EQ(numAddrOperands(CcOpcode::Not), 2u);
    EXPECT_EQ(numAddrOperands(CcOpcode::Cmp), 2u);
    EXPECT_EQ(numAddrOperands(CcOpcode::Search), 2u);
    for (CcOpcode op : {CcOpcode::And, CcOpcode::Or, CcOpcode::Xor,
                        CcOpcode::Clmul, CcOpcode::Add, CcOpcode::Sub,
                        CcOpcode::Mul, CcOpcode::Lt, CcOpcode::Gt,
                        CcOpcode::Eq})
        EXPECT_EQ(numAddrOperands(op), 3u) << toString(op);
}

TEST(CcIsaExhaustive, CcRAndBitSerialPartitions)
{
    std::size_t ccr = 0, bitserial = 0, compares = 0;
    for (CcOpcode op : kAllCcOpcodes) {
        if (isCcR(op))
            ++ccr;
        if (isBitSerial(op))
            ++bitserial;
        if (isBitSerialCompare(op)) {
            ++compares;
            // Every compare is bit-serial; no op is both CC-R and
            // bit-serial (predicates write a destination slice).
            EXPECT_TRUE(isBitSerial(op)) << toString(op);
        }
        EXPECT_FALSE(isCcR(op) && isBitSerial(op)) << toString(op);
    }
    EXPECT_EQ(ccr, 2u);        // cmp, search
    EXPECT_EQ(bitserial, 6u);  // add, sub, mul, lt, gt, eq
    EXPECT_EQ(compares, 3u);   // lt, gt, eq
}

// ---------------------------------------------------------------------
// Bit-serial encodings: builders, slice addressing, validation.
// ---------------------------------------------------------------------

TEST(CcIsaBitSerial, BuildersEncodeOperandsAndWidth)
{
    Addr a = 0x100000, b = 0x200000, d = 0x300000;
    auto add = CcInstruction::add(a, b, d, 64, 8);
    EXPECT_EQ(add.op, CcOpcode::Add);
    EXPECT_EQ(add.laneBits, 8u);
    expectOperands(add, {a, b, d});
    EXPECT_NO_THROW(add.validate());

    auto lt = CcInstruction::cmpLt(a, b, d, 64, 16, /*is_signed=*/true);
    EXPECT_EQ(lt.op, CcOpcode::Lt);
    EXPECT_TRUE(lt.isSigned);
    EXPECT_EQ(lt.sliceCount(d), 1u);   // predicate: one slice
    EXPECT_EQ(lt.sliceCount(a), 16u);  // source: full stack
    EXPECT_NO_THROW(lt.validate());

    auto mul = CcInstruction::mul(a, b, d, 64, 32);
    EXPECT_EQ(mul.sliceCount(d), 32u);
    EXPECT_EQ(CcInstruction::sliceAddr(d, 0), d);
    EXPECT_EQ(CcInstruction::sliceAddr(d, 5), d + 5 * kSliceStride);
}

TEST(CcIsaBitSerial, DisassemblyCarriesWidthAndSign)
{
    EXPECT_EQ(CcInstruction::add(0x1000, 0x2000, 0x3000, 64, 8)
                  .toString(),
              "cc_add8 0x1000 0x2000 0x3000 64");
    EXPECT_EQ(CcInstruction::cmpLt(0x1000, 0x2000, 0x3000, 64, 16, true)
                  .toString(),
              "cc_lt16s 0x1000 0x2000 0x3000 64");
    EXPECT_EQ(CcInstruction::cmpGt(0x1000, 0x2000, 0x3000, 64, 16,
                                   false)
                  .toString(),
              "cc_gt16u 0x1000 0x2000 0x3000 64");
    EXPECT_EQ(CcInstruction::cmpEq(0x1000, 0x2000, 0x3000, 64, 4)
                  .toString(),
              "cc_eq4 0x1000 0x2000 0x3000 64");
}

TEST(CcIsaBitSerial, ValidateRejectsBadEncodings)
{
    Addr a = 0x100000, b = 0x200000, d = 0x300000;
    // Lane width outside 1..32.
    EXPECT_THROW(CcInstruction::add(a, b, d, 64, 0).validate(),
                 FatalError);
    EXPECT_THROW(CcInstruction::add(a, b, d, 64, 33).validate(),
                 FatalError);
    // Slice rows must be whole blocks and fit the slice stride.
    EXPECT_THROW(CcInstruction::add(a, b, d, 60, 8).validate(),
                 FatalError);
    EXPECT_THROW(
        CcInstruction::add(a, b, d, kSliceStride + 64, 8).validate(),
        FatalError);
    // Operand bases must be slice-stride (page) aligned.
    EXPECT_THROW(CcInstruction::add(a + 64, b, d, 64, 8).validate(),
                 FatalError);
    // Mul destination stack must not overlap either source stack.
    EXPECT_THROW(CcInstruction::mul(a, b, a, 64, 8).validate(),
                 FatalError);
    EXPECT_THROW(
        CcInstruction::mul(a, b, b + 4 * kSliceStride, 64, 8).validate(),
        FatalError);
    // Add may alias (accumulate in place).
    EXPECT_NO_THROW(CcInstruction::add(a, b, a, 64, 8).validate());
}

TEST(CcIsaBitSerial, NeverSpansPagesAndNeverSplits)
{
    // The page-stride layout keeps every slice row inside one page, so
    // the page-split exception cannot fire for bit-serial ops.
    for (std::size_t w : {1u, 8u, 32u}) {
        auto instr = CcInstruction::add(0x100000, 0x200000, 0x300000,
                                        kSliceStride, w);
        EXPECT_FALSE(instr.spansPage()) << w;
    }
}

} // namespace
} // namespace ccache::cc
