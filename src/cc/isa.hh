/**
 * @file
 * Compute Cache ISA (paper Table II).
 *
 * Vector instructions whose operands are specified register-indirect and
 * whose sizes are immediates up to 16 KB. cc_cmp / cc_search are CC-R
 * (read-only, result to a core register); the rest are CC-RW.
 */

#ifndef CCACHE_CC_ISA_HH
#define CCACHE_CC_ISA_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace ccache::cc {

/** Table II opcodes, extended with the Neural Cache bit-serial
 *  arithmetic class (arXiv 1805.03718). cc_clmulX is one opcode with a
 *  width field; the bit-serial ops carry a lane-width field and operate
 *  on the transposed bit-slice layout (see cc/transpose.hh). */
enum class CcOpcode {
    Copy,    ///< b[i] = a[i]
    Buz,     ///< a[i] = 0
    Cmp,     ///< r[i] = (a[i] == b[i]), word-granular
    Search,  ///< r[i] = (a[i] == k), 64-byte key per Section IV-A
    And,     ///< c[i] = a[i] & b[i]
    Or,      ///< c[i] = a[i] | b[i]
    Xor,     ///< c[i] = a[i] ^ b[i]
    Clmul,   ///< c_i = xor-reduce(a[i] & b[i]) at 64/128/256-bit words
    Not,     ///< b[i] = ~a[i]
    Add,     ///< c[l] = a[l] + b[l] (mod 2^W), bit-serial transposed
    Sub,     ///< c[l] = a[l] - b[l] (mod 2^W), bit-serial transposed
    Mul,     ///< c[l] = a[l] * b[l] (mod 2^W), shift-and-add
    Lt,      ///< c bit l = (a[l] < b[l]), signed or unsigned
    Gt,      ///< c bit l = (a[l] > b[l]), signed or unsigned
    Eq,      ///< c bit l = (a[l] == b[l])
};

const char *toString(CcOpcode op);

/** Every enumerator, for exhaustive metadata tests and sweeps. */
inline constexpr CcOpcode kAllCcOpcodes[] = {
    CcOpcode::Copy, CcOpcode::Buz,   CcOpcode::Cmp, CcOpcode::Search,
    CcOpcode::And,  CcOpcode::Or,    CcOpcode::Xor, CcOpcode::Clmul,
    CcOpcode::Not,  CcOpcode::Add,   CcOpcode::Sub, CcOpcode::Mul,
    CcOpcode::Lt,   CcOpcode::Gt,    CcOpcode::Eq,
};
inline constexpr std::size_t kNumCcOpcodes =
    sizeof(kAllCcOpcodes) / sizeof(kAllCcOpcodes[0]);

/** CC-R instructions only read memory; CC-RW also write (Section IV-H). */
bool isCcR(CcOpcode op);

/** Number of memory operands (source + destination addresses). */
unsigned numAddrOperands(CcOpcode op);

/** True for the bit-serial arithmetic class (transposed operands). */
bool isBitSerial(CcOpcode op);

/** True for the bit-serial predicate ops (lt/gt/eq). */
bool isBitSerialCompare(CcOpcode op);

/** Maximum vector size in bytes (Section IV-A). @{ */
inline constexpr std::size_t kMaxVectorBytes = 16 * 1024;
inline constexpr std::size_t kMaxCmpBytes = 512;       ///< 64 words
inline constexpr std::size_t kSearchKeyBytes = 64;
/** @} */

/** Bit-serial lane widths supported by the carry latch (1..32 bits). */
inline constexpr std::size_t kMaxBitSerialWidth = 32;

/**
 * Address stride between consecutive bit-slice rows of a transposed
 * operand. One page equals (or is a multiple of) the partition stride
 * 2^minMatchBits of every cache level (Table III), so page-aligned
 * operand bases put all W slices of a lane group into the SAME block
 * partition at consecutive rows -- the Neural Cache layout that makes
 * in-place bit-serial arithmetic possible. It also means a slice row
 * never crosses a page, so bit-serial ops never take the Section IV-D
 * page-split exception.
 */
inline constexpr std::size_t kSliceStride = kPageSize;

/** Memory operand base addresses of one instruction, held inline (an
 *  instruction has at most three), so the per-instruction checks
 *  iterate them without allocating. */
struct OperandAddrs
{
    std::array<Addr, 3> addr{};
    std::size_t count = 0;

    const Addr *begin() const { return addr.data(); }
    const Addr *end() const { return addr.data() + count; }
    std::size_t size() const { return count; }
    Addr operator[](std::size_t i) const { return addr[i]; }
};

/** One decoded CC instruction. */
struct CcInstruction
{
    CcOpcode op = CcOpcode::Copy;
    Addr src1 = 0;          ///< a
    Addr src2 = 0;          ///< b (cmp/and/or/xor/clmul) or key (search)
    Addr dest = 0;          ///< b/c for RW ops; unused for CC-R
    /** Vector size in bytes. For bit-serial ops this is the bytes per
     *  bit-slice row (lanes / 8, whole 64-byte blocks); slice k of an
     *  operand then lives at base + k * kSliceStride (see below). */
    std::size_t size = 0;
    std::size_t clmulWordBits = 64;  ///< 64 / 128 / 256

    /** Lane width W of the bit-serial ops (1..kMaxBitSerialWidth). */
    std::size_t laneBits = 8;

    /** Signed compare semantics for Lt/Gt (two's complement). Ignored
     *  by every other opcode: add/sub/mul wrap mod 2^W, where signed
     *  and unsigned arithmetic coincide. */
    bool isSigned = false;

    /** Extension used by BMM: src2 is ONE 64-byte block replicated into
     *  every partition holding src1 data — the same controller machinery
     *  as the cc_search key (Section IV-D key table). The clmul parities
     *  are then packed densely into dest by the controller's result
     *  shift register (one dest block per 512 parity bits). */
    bool src2Replicated = false;

    /** Builders for each Table II mnemonic. @{ */
    static CcInstruction copy(Addr a, Addr b, std::size_t n);
    static CcInstruction buz(Addr a, std::size_t n);
    static CcInstruction cmp(Addr a, Addr b, std::size_t n);
    static CcInstruction search(Addr a, Addr k, std::size_t n);
    static CcInstruction logicalAnd(Addr a, Addr b, Addr c, std::size_t n);
    static CcInstruction logicalOr(Addr a, Addr b, Addr c, std::size_t n);
    static CcInstruction logicalXor(Addr a, Addr b, Addr c, std::size_t n);
    static CcInstruction logicalNot(Addr a, Addr b, std::size_t n);
    static CcInstruction clmul(Addr a, Addr b, Addr c, std::size_t n,
                               std::size_t word_bits);
    /** @} */

    /** The replicated-operand clmul extension (see src2Replicated). */
    static CcInstruction clmulReplicated(Addr a, Addr b_block, Addr c,
                                         std::size_t n,
                                         std::size_t word_bits);

    /** Bit-serial arithmetic builders. @p slice_bytes is the bytes per
     *  bit-slice row (lanes / 8); @p width the lane width W. @{ */
    static CcInstruction add(Addr a, Addr b, Addr c,
                             std::size_t slice_bytes, std::size_t width);
    static CcInstruction sub(Addr a, Addr b, Addr c,
                             std::size_t slice_bytes, std::size_t width);
    static CcInstruction mul(Addr a, Addr b, Addr c,
                             std::size_t slice_bytes, std::size_t width);
    static CcInstruction cmpLt(Addr a, Addr b, Addr c,
                               std::size_t slice_bytes, std::size_t width,
                               bool is_signed);
    static CcInstruction cmpGt(Addr a, Addr b, Addr c,
                               std::size_t slice_bytes, std::size_t width,
                               bool is_signed);
    static CcInstruction cmpEq(Addr a, Addr b, Addr c,
                               std::size_t slice_bytes, std::size_t width);
    /** @} */

    /** Address of bit-slice row @p k of the operand rooted at @p base. */
    static Addr sliceAddr(Addr base, std::size_t k)
    {
        return base + k * kSliceStride;
    }

    /** Bit-slice rows of the operand rooted at @p base: laneBits for
     *  sources (and add/sub/mul destinations), one predicate slice for
     *  compare destinations. */
    std::size_t sliceCount(Addr base) const;

    /** Parity bits produced per 64-byte block op of a clmul. */
    std::size_t clmulBitsPerBlock() const
    {
        return 8 * 64 / clmulWordBits;
    }

    /** All memory operand base addresses in use. */
    OperandAddrs operandAddrs() const;

    /**
     * Validate against the ISA limits; throws FatalError with a
     * diagnostic on malformed encodings (zero/oversized vectors, bad
     * clmul width, unaligned operands, an operand at address 0 or
     * one whose range wraps past 2^64).
     */
    void validate() const;

    /** True iff any operand's address range crosses a 4 KB page
     *  boundary — the condition that raises the pipeline exception of
     *  Section IV-D. */
    bool spansPage() const;

    /**
     * The exception handler's behaviour: split into sub-instructions
     * whose operands each stay within one page.
     */
    std::vector<CcInstruction> splitAtPageBoundaries() const;

    /** Human-readable disassembly, e.g. "cc_and 0x1000 0x2000 0x3000 256". */
    std::string toString() const;
};

} // namespace ccache::cc

#endif // CCACHE_CC_ISA_HH
