#include "cc/isa.hh"

#include <algorithm>
#include <sstream>

#include "common/bit_util.hh"
#include "common/logging.hh"

namespace ccache::cc {

const char *
toString(CcOpcode op)
{
    switch (op) {
      case CcOpcode::Copy: return "cc_copy";
      case CcOpcode::Buz: return "cc_buz";
      case CcOpcode::Cmp: return "cc_cmp";
      case CcOpcode::Search: return "cc_search";
      case CcOpcode::And: return "cc_and";
      case CcOpcode::Or: return "cc_or";
      case CcOpcode::Xor: return "cc_xor";
      case CcOpcode::Clmul: return "cc_clmul";
      case CcOpcode::Not: return "cc_not";
      case CcOpcode::Add: return "cc_add";
      case CcOpcode::Sub: return "cc_sub";
      case CcOpcode::Mul: return "cc_mul";
      case CcOpcode::Lt: return "cc_lt";
      case CcOpcode::Gt: return "cc_gt";
      case CcOpcode::Eq: return "cc_eq";
    }
    return "?";
}

bool
isCcR(CcOpcode op)
{
    // Exhaustive on purpose: a new opcode must be classified here or the
    // metadata tests fail (satellite of the bit-serial PR). The
    // bit-serial predicates are CC-RW -- their per-lane masks exceed a
    // 64-bit register, so they land in a destination slice instead.
    switch (op) {
      case CcOpcode::Cmp:
      case CcOpcode::Search:
        return true;
      case CcOpcode::Copy:
      case CcOpcode::Buz:
      case CcOpcode::And:
      case CcOpcode::Or:
      case CcOpcode::Xor:
      case CcOpcode::Clmul:
      case CcOpcode::Not:
      case CcOpcode::Add:
      case CcOpcode::Sub:
      case CcOpcode::Mul:
      case CcOpcode::Lt:
      case CcOpcode::Gt:
      case CcOpcode::Eq:
        return false;
    }
    return false;
}

unsigned
numAddrOperands(CcOpcode op)
{
    switch (op) {
      case CcOpcode::Buz:
        return 1;
      case CcOpcode::Copy:
      case CcOpcode::Cmp:
      case CcOpcode::Search:
      case CcOpcode::Not:
        return 2;
      case CcOpcode::And:
      case CcOpcode::Or:
      case CcOpcode::Xor:
      case CcOpcode::Clmul:
      case CcOpcode::Add:
      case CcOpcode::Sub:
      case CcOpcode::Mul:
      case CcOpcode::Lt:
      case CcOpcode::Gt:
      case CcOpcode::Eq:
        return 3;
    }
    return 0;
}

bool
isBitSerial(CcOpcode op)
{
    switch (op) {
      case CcOpcode::Add:
      case CcOpcode::Sub:
      case CcOpcode::Mul:
      case CcOpcode::Lt:
      case CcOpcode::Gt:
      case CcOpcode::Eq:
        return true;
      default:
        return false;
    }
}

bool
isBitSerialCompare(CcOpcode op)
{
    return op == CcOpcode::Lt || op == CcOpcode::Gt || op == CcOpcode::Eq;
}

CcInstruction
CcInstruction::copy(Addr a, Addr b, std::size_t n)
{
    CcInstruction i;
    i.op = CcOpcode::Copy;
    i.src1 = a;
    i.dest = b;
    i.size = n;
    return i;
}

CcInstruction
CcInstruction::buz(Addr a, std::size_t n)
{
    CcInstruction i;
    i.op = CcOpcode::Buz;
    i.dest = a;
    i.size = n;
    return i;
}

CcInstruction
CcInstruction::cmp(Addr a, Addr b, std::size_t n)
{
    CcInstruction i;
    i.op = CcOpcode::Cmp;
    i.src1 = a;
    i.src2 = b;
    i.size = n;
    return i;
}

CcInstruction
CcInstruction::search(Addr a, Addr k, std::size_t n)
{
    CcInstruction i;
    i.op = CcOpcode::Search;
    i.src1 = a;
    i.src2 = k;
    i.size = n;
    return i;
}

CcInstruction
CcInstruction::logicalAnd(Addr a, Addr b, Addr c, std::size_t n)
{
    CcInstruction i;
    i.op = CcOpcode::And;
    i.src1 = a;
    i.src2 = b;
    i.dest = c;
    i.size = n;
    return i;
}

CcInstruction
CcInstruction::logicalOr(Addr a, Addr b, Addr c, std::size_t n)
{
    CcInstruction i = logicalAnd(a, b, c, n);
    i.op = CcOpcode::Or;
    return i;
}

CcInstruction
CcInstruction::logicalXor(Addr a, Addr b, Addr c, std::size_t n)
{
    CcInstruction i = logicalAnd(a, b, c, n);
    i.op = CcOpcode::Xor;
    return i;
}

CcInstruction
CcInstruction::logicalNot(Addr a, Addr b, std::size_t n)
{
    CcInstruction i;
    i.op = CcOpcode::Not;
    i.src1 = a;
    i.dest = b;
    i.size = n;
    return i;
}

CcInstruction
CcInstruction::clmul(Addr a, Addr b, Addr c, std::size_t n,
                     std::size_t word_bits)
{
    CcInstruction i = logicalAnd(a, b, c, n);
    i.op = CcOpcode::Clmul;
    i.clmulWordBits = word_bits;
    return i;
}

CcInstruction
CcInstruction::clmulReplicated(Addr a, Addr b_block, Addr c, std::size_t n,
                               std::size_t word_bits)
{
    CcInstruction i = clmul(a, b_block, c, n, word_bits);
    i.src2Replicated = true;
    return i;
}

CcInstruction
CcInstruction::add(Addr a, Addr b, Addr c, std::size_t slice_bytes,
                   std::size_t width)
{
    CcInstruction i;
    i.op = CcOpcode::Add;
    i.src1 = a;
    i.src2 = b;
    i.dest = c;
    i.size = slice_bytes;
    i.laneBits = width;
    return i;
}

CcInstruction
CcInstruction::sub(Addr a, Addr b, Addr c, std::size_t slice_bytes,
                   std::size_t width)
{
    CcInstruction i = add(a, b, c, slice_bytes, width);
    i.op = CcOpcode::Sub;
    return i;
}

CcInstruction
CcInstruction::mul(Addr a, Addr b, Addr c, std::size_t slice_bytes,
                   std::size_t width)
{
    CcInstruction i = add(a, b, c, slice_bytes, width);
    i.op = CcOpcode::Mul;
    return i;
}

CcInstruction
CcInstruction::cmpLt(Addr a, Addr b, Addr c, std::size_t slice_bytes,
                     std::size_t width, bool is_signed)
{
    CcInstruction i = add(a, b, c, slice_bytes, width);
    i.op = CcOpcode::Lt;
    i.isSigned = is_signed;
    return i;
}

CcInstruction
CcInstruction::cmpGt(Addr a, Addr b, Addr c, std::size_t slice_bytes,
                     std::size_t width, bool is_signed)
{
    CcInstruction i = cmpLt(a, b, c, slice_bytes, width, is_signed);
    i.op = CcOpcode::Gt;
    return i;
}

CcInstruction
CcInstruction::cmpEq(Addr a, Addr b, Addr c, std::size_t slice_bytes,
                     std::size_t width)
{
    CcInstruction i = add(a, b, c, slice_bytes, width);
    i.op = CcOpcode::Eq;
    return i;
}

OperandAddrs
CcInstruction::operandAddrs() const
{
    switch (op) {
      case CcOpcode::Buz:
        return {{dest}, 1};
      case CcOpcode::Copy:
      case CcOpcode::Not:
        return {{src1, dest}, 2};
      case CcOpcode::Cmp:
      case CcOpcode::Search:
        return {{src1, src2}, 2};
      case CcOpcode::And:
      case CcOpcode::Or:
      case CcOpcode::Xor:
      case CcOpcode::Clmul:
      case CcOpcode::Add:
      case CcOpcode::Sub:
      case CcOpcode::Mul:
      case CcOpcode::Lt:
      case CcOpcode::Gt:
      case CcOpcode::Eq:
        return {{src1, src2, dest}, 3};
    }
    return {};
}

std::size_t
CcInstruction::sliceCount(Addr base) const
{
    if (!isBitSerial(op))
        CC_PANIC("sliceCount is a bit-serial helper");
    if (base == dest && isBitSerialCompare(op))
        return 1;                    // one predicate slice
    return laneBits;                 // full bit-slice stack
}

void
CcInstruction::validate() const
{
    if (size == 0)
        CC_FATAL(toString(), ": zero-length vector");
    if (size > kMaxVectorBytes)
        CC_FATAL(toString(), ": vector size ", size, " exceeds ",
                 kMaxVectorBytes);
    if (size % 8 != 0)
        CC_FATAL(toString(), ": vector size ", size,
                 " is not a word multiple");
    if (isCcR(op) && size > kMaxCmpBytes)
        CC_FATAL(toString(), ": cmp/search limited to ", kMaxCmpBytes,
                 " bytes so the result fits a 64-bit register");
    if (op == CcOpcode::Clmul && clmulWordBits != 64 &&
        clmulWordBits != 128 && clmulWordBits != 256) {
        CC_FATAL(toString(), ": clmul word width must be 64/128/256");
    }
    const OperandAddrs addrs = operandAddrs();
    for (Addr a : addrs) {
        // The controller reads address 0 as "no operand".
        if (a == 0)
            CC_FATAL(toString(), ": operand address 0 is reserved");
        if (!isAligned(a, kBlockSize))
            CC_FATAL(toString(), ": operand 0x", std::hex, a,
                     " is not 64-byte aligned");
    }
    if (isBitSerial(op)) {
        if (laneBits < 1 || laneBits > kMaxBitSerialWidth)
            CC_FATAL(toString(), ": lane width ", laneBits,
                     " outside 1..", kMaxBitSerialWidth);
        if (size % kBlockSize != 0)
            CC_FATAL(toString(), ": bit-slice bytes ", size,
                     " must be whole 64-byte blocks");
        if (size > kSliceStride)
            CC_FATAL(toString(), ": bit-slice bytes ", size,
                     " exceed the slice stride ", kSliceStride);
        // Page-aligned bases give the transposed layout its locality
        // guarantee (see kSliceStride) and keep every slice row inside
        // one page.
        for (Addr a : addrs) {
            if (!isAligned(a, kSliceStride))
                CC_FATAL(toString(), ": transposed operand 0x", std::hex,
                         a, std::dec, " is not slice-stride aligned");
        }
        if (op == CcOpcode::Mul) {
            // The accumulator is read-modify-written per partial
            // product; overlapping a source would corrupt it.
            Addr dlo = dest;
            Addr dhi = dest + laneBits * kSliceStride;
            for (Addr s : {src1, src2}) {
                if (s < dhi && dlo < s + laneBits * kSliceStride)
                    CC_FATAL(toString(),
                             ": mul destination overlaps a source");
            }
        }
    }
    // No operand range may wrap past 2^64: a page-split piece would
    // then start at address 0, which the controller reads as "no
    // operand".
    const Addr extent = isBitSerial(op) ? laneBits * kSliceStride
                                        : std::max(size, kSearchKeyBytes);
    for (Addr a : addrs) {
        const Addr end = a + extent;
        if (end != 0 && end < a)
            CC_FATAL(toString(), ": operand 0x", std::hex, a,
                     " range wraps past 2^64");
    }
}

bool
CcInstruction::spansPage() const
{
    // Bit-serial operands are addressed slice-by-slice and validate()
    // already rejects any slice that crosses a page, so the Section IV-D
    // exception never fires for them.
    if (isBitSerial(op))
        return false;
    // The key operand of search is a single 64-byte block; all other
    // operands cover the full vector size.
    for (Addr a : operandAddrs()) {
        std::size_t span = size;
        if ((op == CcOpcode::Search || src2Replicated) && a == src2)
            span = kSearchKeyBytes;
        else if (src2Replicated && a == dest)
            span = divCeil(size / kBlockSize * clmulBitsPerBlock(),
                           8 * kBlockSize) * kBlockSize;
        if (alignDown(a, kPageSize) != alignDown(a + span - 1, kPageSize))
            return true;
    }
    return false;
}

std::vector<CcInstruction>
CcInstruction::splitAtPageBoundaries() const
{
    CC_ASSERT(!isBitSerial(op),
              "bit-serial instructions never raise the page-split "
              "exception (spansPage() is false by construction)");
    std::vector<CcInstruction> pieces;
    std::size_t done = 0;
    while (done < size) {
        // Next page boundary over any operand bounds this piece.
        std::size_t chunk = size - done;
        for (Addr a : operandAddrs()) {
            if ((op == CcOpcode::Search || src2Replicated) && a == src2)
                continue;  // the key / replicated block does not advance
            Addr cur = a + done;
            std::size_t to_boundary =
                static_cast<std::size_t>(alignDown(cur, kPageSize) +
                                         kPageSize - cur);
            chunk = std::min(chunk, to_boundary);
        }
        CcInstruction piece = *this;
        piece.src1 = src1 + done;
        if (op != CcOpcode::Search && !src2Replicated)
            piece.src2 = src2 ? src2 + done : 0;
        piece.dest = dest ? dest + done : 0;
        piece.size = chunk;
        pieces.push_back(piece);
        done += chunk;
    }
    return pieces;
}

std::string
CcInstruction::toString() const
{
    std::ostringstream os;
    os << cc::toString(op);
    if (op == CcOpcode::Clmul)
        os << clmulWordBits;
    if (isBitSerial(op)) {
        os << laneBits;
        if (op == CcOpcode::Lt || op == CcOpcode::Gt)
            os << (isSigned ? "s" : "u");
    }
    os << std::hex;
    for (Addr a : operandAddrs())
        os << " 0x" << a;
    os << std::dec << " " << size;
    return os.str();
}

} // namespace ccache::cc
