/**
 * @file
 * Compute-capable SRAM sub-array (paper Sections II-B and IV-B).
 *
 * A SubArray assembles the bit-cell array, a second word-line decoder (so
 * two rows can be activated at once), sense amplifiers re-configured from
 * differential reads to single-ended BL/BLB senses at Vref = 0.5, and the
 * XOR-reduction tree into the unit the Compute Cache controller issues
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
#include "common/rng.hh"
#include "common/stats.hh"
#include "sram/bitcell_array.hh"
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

    /** Word-granular equality of two blocks, counted and costed as
     *  @p op (cmp or search). */
    CmpResult compareWords(BitlineOp op, const BlockLoc &a,
                           const BlockLoc &b);

    void checkLoc(const BlockLoc &loc) const;
    void checkSamePartition(const BlockLoc &a, const BlockLoc &b) const;

    /** Bounds/partition checks for a bit-serial operand. */
    void checkBitSerial(const BitSerialOperand &o, std::size_t width) const;

    /** Checks for a bit-serial op writing @p dst from @p a and @p b: all
     *  three in one partition, and @p dst clear of both sources, except
     *  that @p exact_alias allows it to coincide with one. */
    void checkBitSerialOperands(const BitSerialOperand &a,
                                const BitSerialOperand &b,
                                const BitSerialOperand &dst,
                                std::size_t width, bool exact_alias) const;

    /** Slice row @p k of a bit-serial operand as a block location. */
    static BlockLoc sliceLoc(const BitSerialOperand &o, std::size_t k)
    {
        return {o.partition, o.row0 + k};
    }

    /** Charge one bit-serial step of kind @p op into @p cost. */
    void chargeStep(BitlineOp op, OpCost *cost);

    SubArrayParams params_;
    BitcellArray cells_;
    XorReductionTree xorTree_;
    std::vector<std::uint64_t> opCounts_;

    /** Scratch row list reused by activatePair (no per-op allocation). */
    std::vector<std::size_t> pairRows_ = {0, 0};

    /** Per-column carry/borrow latch in the sense amplifiers, reset at
     *  the start of every bit-serial sequence. */
    BitVector carryLatch_;
};

/**
 * Monte-Carlo failure-probability estimate for a sense at
 * SubArray::RawSense::margin: draw @p trials Gaussian amplifier offsets
 * with standard deviation @p offset_sigma and count how many exceed
 * @p margin. Jeloka et al. report more than six-sigma robustness; tests
 * assert zero failures at realistic sigma.
 */
double monteCarloFailureRate(double margin, double offset_sigma,
                             std::size_t trials, Rng &rng);

} // namespace ccache::sram

#endif // CCACHE_SRAM_SUBARRAY_HH
