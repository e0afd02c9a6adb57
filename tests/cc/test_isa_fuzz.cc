/**
 * @file
 * Seeded fuzz of CcInstruction::validate(). Every opcode is drawn over
 * the fields a trace record can set: operand addresses (0, block- and
 * page-aligned, unaligned, page-straddling, near 2^64), sizes from 0 to
 * 32 KB, lane widths from 0 to 40 and clmul word widths. Address fields
 * the opcode does not use stay 0. validate() must either return or
 * throw FatalError; no instruction it accepts, nor any of its
 * page-split pieces, may have an operand at address 0; and each must
 * execute on a fresh machine without an exception.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>

#include "cc/isa.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "sim/system.hh"

namespace ccache::cc {
namespace {

Addr
drawAddr(Rng &rng)
{
    const Addr pages = 1 + rng.below(4096);
    const Addr blocks = 1 + rng.below(1 << 20);
    switch (rng.below(12)) {
      case 0:
        return 0;
      case 1:
      case 2:
      case 3:
        return pages * kPageSize;
      case 4:
      case 5:
        return blocks * kBlockSize;
      case 6:                               // unaligned
        return blocks * kBlockSize + 1 + rng.below(kBlockSize - 1);
      case 7:
      case 8:                               // a vector crosses a page
        return pages * kPageSize - kBlockSize * (1 + rng.below(8));
      case 9:                               // block-aligned near 2^64
        return Addr{0} - kBlockSize * (1 + rng.below(512));
      case 10:                              // page-aligned near 2^64
        return Addr{0} - kPageSize * (1 + rng.below(8));
      default:                              // anywhere, unaligned
        return rng.next();
    }
}

std::size_t
drawSize(Rng &rng)
{
    constexpr std::size_t kMax = 32 * 1024;
    const std::size_t edges[] = {0,
                                 8,
                                 kBlockSize,
                                 kMaxCmpBytes,
                                 kMaxCmpBytes + 8,
                                 kSliceStride,
                                 kSliceStride + kBlockSize,
                                 kMaxVectorBytes,
                                 kMaxVectorBytes + 8,
                                 kMax};
    switch (rng.below(6)) {
      case 0:
        return rng.below(kMax + 1);
      case 1:
        return 8 * rng.below(kMax / 8 + 1);
      case 2:
        return kBlockSize * rng.below(kMax / kBlockSize + 1);
      case 3:
      case 4:                               // within every op's limit
        return kBlockSize * (1 + rng.below(kMaxCmpBytes / kBlockSize));
      default:
        return edges[rng.below(std::size(edges))];
    }
}

CcInstruction
drawInstruction(Rng &rng)
{
    CcInstruction in;
    in.op = kAllCcOpcodes[rng.below(kNumCcOpcodes)];
    in.size = drawSize(rng);
    if (isBitSerial(in.op))
        in.laneBits = rng.below(41);
    if (in.op == CcOpcode::Clmul) {
        const std::size_t widths[] = {0, 32, 64, 128, 256, 512};
        in.clmulWordBits = rng.chance(0.8)
            ? widths[rng.below(std::size(widths))]
            : rng.below(1024);
    }
    // Buz writes dest only; cmp/search read src1 and src2; copy/not
    // read src1 and write dest; the rest use all three.
    const unsigned n = numAddrOperands(in.op);
    if (n >= 2)
        in.src1 = drawAddr(rng);
    if (n == 3 || (n == 2 && isCcR(in.op)))
        in.src2 = drawAddr(rng);
    if (n != 2 || !isCcR(in.op))
        in.dest = drawAddr(rng);
    return in;
}

TEST(CcInstructionFuzz, ValidateAcceptsOrThrowsFatalAndAcceptedOpsExecute)
{
    Rng rng(0xc0de1a7e);
    std::size_t accepted[kNumCcOpcodes] = {};
    std::size_t zero_rejected = 0;
    for (int round = 0; round < 20000; ++round) {
        const CcInstruction in = drawInstruction(rng);
        bool valid = false;
        try {
            in.validate();
            valid = true;
        } catch (const FatalError &) {
            for (Addr a : in.operandAddrs())
                zero_rejected += a == 0;
        } catch (const std::exception &e) {
            ADD_FAILURE() << in.toString() << ": validate() threw "
                          << e.what();
        }
        if (!valid)
            continue;
        // Neither an operand nor any page-split piece's operand may
        // sit at address 0, which the controller reads as "no operand".
        for (Addr a : in.operandAddrs())
            ASSERT_NE(a, 0u) << in.toString() << " accepted";
        if (in.spansPage()) {
            for (const CcInstruction &piece : in.splitAtPageBoundaries()) {
                for (Addr a : piece.operandAddrs())
                    ASSERT_NE(a, 0u) << in.toString() << " splits to "
                                     << piece.toString();
            }
        }
        ++accepted[static_cast<std::size_t>(in.op)];
        sim::System sys;
        try {
            sys.cc().execute(0, in);
        } catch (const std::exception &e) {
            ADD_FAILURE() << in.toString() << ": accepted, then threw "
                          << e.what();
        }
    }
    // The draw must reach both outcomes: every opcode is accepted at
    // least once, and operands at 0 are rejected.
    for (CcOpcode op : kAllCcOpcodes)
        EXPECT_GT(accepted[static_cast<std::size_t>(op)], 0u)
            << toString(op);
    EXPECT_GT(zero_rejected, 1000u);
}

} // namespace
} // namespace ccache::cc
