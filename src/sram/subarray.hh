/**
 * @file
 * Compute-capable SRAM sub-array (paper Sections II-B and IV-B).
 *
 * A SubArray assembles the bit-cell array, a second word-line decoder (so
 * two rows can be activated at once), re-configurable sense amplifiers and
 * the XOR-reduction tree into the unit the Compute Cache controller issues
 * operations to.
 *
 * Blocks within the sub-array are addressed as (partition, row): a block
 * partition is the group of blocks sharing one set of bit-lines, and
 * in-place operations are legal only between blocks of the same partition
 * (operand locality, Section IV-C).
 *
 * Every operation both computes the functional result through the bit-line
 * circuit semantics and returns its delay/energy cost, so tests can check
 * the circuit-level definitions against reference software implementations.
 */

#ifndef CCACHE_SRAM_SUBARRAY_HH
#define CCACHE_SRAM_SUBARRAY_HH

#include <cstdint>
#include <vector>

#include "common/block.hh"
#include "common/stats.hh"
#include "fault/fault_injector.hh"
#include "sram/bitcell_array.hh"
#include "sram/sense_amp.hh"
#include "sram/subarray_params.hh"
#include "sram/xor_reduction_tree.hh"

namespace ccache::sram {

/** Location of one 64-byte block inside a sub-array. */
struct BlockLoc
{
    std::size_t partition;  ///< block partition (column group)
    std::size_t row;        ///< word-line index

    bool operator==(const BlockLoc &) const = default;
};

/** Cost of one sub-array operation. */
struct OpCost
{
    Cycles delay = 0;
    EnergyPJ energy = 0.0;
};

/** Result of a comparison-style operation. */
struct CmpResult
{
    /** Bit i set iff 64-bit word i of the two operands are equal. */
    std::uint64_t wordEqualMask = 0;

    /** True iff the entire blocks are equal. */
    bool allEqual = false;

    OpCost cost;
};

/** Result of a clmul operation. */
struct ClmulResult
{
    /** One parity bit per word of the configured granularity. */
    std::vector<bool> parities;

    OpCost cost;
};

/**
 * One bit-serial operand: @p width consecutive bit-slice rows starting at
 * @p row0 within @p partition. Bit-line (lane) l of slice row k holds bit
 * k of lane l's value, so a 512-column partition computes 512 lanes per
 * row activation (the Neural Cache transposed layout).
 */
struct BitSerialOperand
{
    std::size_t partition;
    std::size_t row0;
};

/** Result of a bit-serial compare: one predicate bit per lane. */
struct BitSerialCmpResult
{
    BitVector lt;   ///< lane i set iff a[i] < b[i]
    BitVector gt;   ///< lane i set iff a[i] > b[i]
    BitVector eq;   ///< lane i set iff a[i] == b[i]
    OpCost cost;
};

/** One compute-capable sub-array. */
class SubArray
{
  public:
    explicit SubArray(const SubArrayParams &params);

    const SubArrayParams &params() const { return params_; }
    std::size_t partitions() const { return params_.blockPartitions(); }
    std::size_t rowsPerPartition() const { return params_.rows; }

    /** Baseline accesses. @{ */
    Block read(const BlockLoc &loc, OpCost *cost = nullptr);
    void write(const BlockLoc &loc, const Block &data,
               OpCost *cost = nullptr);
    /** @} */

    /** In-place two-operand logical ops; result written to @p dst.
     *  All three locations must share a partition. @{ */
    OpCost opAnd(const BlockLoc &a, const BlockLoc &b, const BlockLoc &dst);
    OpCost opOr(const BlockLoc &a, const BlockLoc &b, const BlockLoc &dst);
    OpCost opXor(const BlockLoc &a, const BlockLoc &b, const BlockLoc &dst);
    OpCost opNor(const BlockLoc &a, const BlockLoc &b, const BlockLoc &dst);
    /** @} */

    /** In-place NOT: @p dst = ~@p src (single-row BLB sense). */
    OpCost opNot(const BlockLoc &src, const BlockLoc &dst);

    /** In-place copy via sense-amp feedback (Figure 4); never latches the
     *  source outside the sub-array. */
    OpCost opCopy(const BlockLoc &src, const BlockLoc &dst);

    /** In-place zeroing via reset data latch. */
    OpCost opBuz(const BlockLoc &loc);

    /** Word-granular equality via wired-NOR of XOR bits. */
    CmpResult opCmp(const BlockLoc &a, const BlockLoc &b);

    /** Search is an iterative cmp of a key block against a data block;
     *  identical circuit activity to cmp but tracked separately. */
    CmpResult opSearch(const BlockLoc &key, const BlockLoc &data);

    /** Carryless multiply: AND then XOR-reduce at @p word_bits. */
    ClmulResult opClmul(const BlockLoc &a, const BlockLoc &b,
                        std::size_t word_bits);

    /**
     * Bit-serial arithmetic over the transposed layout (Neural Cache,
     * arXiv 1805.03718): operands are @p width bit-slice rows in one
     * partition, one lane per bit-line. Each bit-plane step is a
     * dual-row activation whose AND/NOR senses feed the per-column
     * carry latch in the sense amplifiers; the sum bit is written back
     * in the same step. All results are mod 2^width (two's-complement
     * wraparound), so signed and unsigned add/sub/mul coincide. @{
     */

    /** dst = a + b (mod 2^width). dst may alias a or b. */
    OpCost opBitSerialAdd(const BitSerialOperand &a,
                          const BitSerialOperand &b,
                          const BitSerialOperand &dst, std::size_t width);

    /** dst = a - b (mod 2^width) via the borrow latch. */
    OpCost opBitSerialSub(const BitSerialOperand &a,
                          const BitSerialOperand &b,
                          const BitSerialOperand &dst, std::size_t width);

    /** dst = a * b (mod 2^width), shift-and-add over partial products.
     *  dst rows must be disjoint from both source row ranges. */
    OpCost opBitSerialMul(const BitSerialOperand &a,
                          const BitSerialOperand &b,
                          const BitSerialOperand &dst, std::size_t width);

    /** Per-lane lt/gt/eq masks, MSB-first. @p is_signed treats the MSB
     *  slice as a two's-complement sign bit. */
    BitSerialCmpResult opBitSerialCompare(const BitSerialOperand &a,
                                          const BitSerialOperand &b,
                                          std::size_t width,
                                          bool is_signed);
    /** @} */

    /**
     * Raw multi-row activation exposed for robustness studies: activates
     * @p rows word-lines at @p underdrive and returns the sensed AND/NOR.
     * Exceeding SubArrayParams::maxSafeActiveRows, or using a weak
     * underdrive, corrupts data exactly like silicon would.
     */
    struct RawSense
    {
        BitVector andResult;
        BitVector norResult;
        double margin;
    };
    RawSense rawActivate(const std::vector<std::size_t> &rows);

    /** Count of executed ops by type, for stats and tests. */
    std::uint64_t opCount(BitlineOp op) const;

    /**
     * Fault-injection hook (robustness studies): when attached, every
     * single-row sense passes through the injector's stuck-at and
     * transient fault models, and every dual-row activation may suffer
     * a sensing-margin failure that corrupts the sensed AND/NOR bits.
     * @p base_id identifies this sub-array in the injector's
     * per-sub-array rate scaling. @{
     */
    void attachFaults(fault::FaultInjector *injector,
                      std::uint64_t base_id = 0);
    const fault::FaultInjector *faults() const { return faults_; }

    /** True iff the last dual-row activation had a margin failure. */
    bool lastMarginFailed() const { return lastMarginFailed_; }

    /**
     * Scalar-reference gate (DESIGN.md §13.3): every op runs the
     * vectorized word-at-a-time bit-line evaluation unless a test
     * selects the per-bit analog scalar path, the reference the two are
     * compared against. The two paths are bit-exact — including fault
     * injection and RNG draw order — and the differential tests hold
     * them to that. @{
     */
    static bool scalarBitline();

    /** Select the per-bit path (true) or the vectorized default (false)
     *  process-wide, for in-process differential tests. */
    static void forceScalarBitline(bool on);
    /** @} */

    /** Fault injected into the last single-row sense, if any. */
    const fault::FaultEvent &lastSenseFault() const
    {
        return lastSenseFault_;
    }
    /** @} */

  private:
    /** Column range covered by partition @p p. */
    std::pair<std::size_t, std::size_t> columnRange(std::size_t p) const;

    /** Extract partition-@p p columns of a full-row bit vector. */
    BitVector extractPartition(const BitVector &row_bits,
                               std::size_t p) const;

    /** Read block bits through an (optionally charged) activation. */
    BitVector senseBlock(const BlockLoc &loc);

    /** Write block bits into the cells of @p loc. */
    void storeBlock(const BlockLoc &loc, const BitVector &bits);

    /** Shared implementation of the two-operand logical ops. */
    OpCost logicalOp(BitlineOp op, const BlockLoc &a, const BlockLoc &b,
                     const BlockLoc &dst);

    /** Compute the (BL, BLB) senses for two activated blocks. */
    struct TwoRowSense
    {
        BitVector andBits;
        BitVector norBits;
    };
    TwoRowSense activatePair(const BlockLoc &a, const BlockLoc &b);

    void checkLoc(const BlockLoc &loc) const;
    void checkSamePartition(const BlockLoc &a, const BlockLoc &b) const;

    /** Bounds/partition checks for a bit-serial operand. */
    void checkBitSerial(const BitSerialOperand &o, std::size_t width) const;

    /** Slice row @p k of a bit-serial operand as a block location. */
    static BlockLoc sliceLoc(const BitSerialOperand &o, std::size_t k)
    {
        return {o.partition, o.row0 + k};
    }

    /** Charge one bit-serial step of kind @p op into @p cost. */
    void chargeStep(BitlineOp op, OpCost *cost);

    SubArrayParams params_;
    BitcellArray cells_;
    SenseAmpArray senseAmps_;
    XorReductionTree xorTree_;
    std::vector<std::uint64_t> opCounts_;

    /** Scratch row list reused by activatePair (no per-op allocation). */
    std::vector<std::size_t> pairRows_ = {0, 0};

    /** Per-column carry/borrow latch in the sense amplifiers, reset at
     *  the start of every bit-serial sequence. */
    BitVector carryLatch_;

    fault::FaultInjector *faults_ = nullptr;
    std::uint64_t faultBaseId_ = 0;
    bool lastMarginFailed_ = false;
    fault::FaultEvent lastSenseFault_;
};

} // namespace ccache::sram

#endif // CCACHE_SRAM_SUBARRAY_HH
