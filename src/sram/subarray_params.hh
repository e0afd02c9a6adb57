/**
 * @file
 * Timing/energy/geometry parameters of a compute-capable SRAM sub-array.
 *
 * The delay and energy multipliers transcribe Section VI-C of the paper:
 * a 64-byte and/or/xor in-place operation takes 3x a single sub-array
 * access (other CC ops 2x); cmp/search/clmul cost 1.5x, copy/buz/not 2x
 * and the remaining logical ops 2.5x the baseline sub-array access energy.
 */

#ifndef CCACHE_SRAM_SUBARRAY_PARAMS_HH
#define CCACHE_SRAM_SUBARRAY_PARAMS_HH

#include <cstddef>

#include "common/types.hh"

namespace ccache::sram {

/** In-place operations a compute sub-array supports (Section IV-B). */
enum class BitlineOp {
    Read,      ///< baseline differential read
    Write,     ///< baseline write
    And,       ///< sense BL with two word-lines active
    Nor,       ///< sense BLB with two word-lines active
    Or,        ///< complement of NOR (inverting sense output)
    Xor,       ///< NOR of BL and BLB sense results
    Not,       ///< sense BLB with one word-line active
    Copy,      ///< coalesced read-write, source fed back to bit-lines
    Buz,       ///< zero a row by writing with reset data latch
    Cmp,       ///< word-granular equality via wired-NOR of XOR bits
    Search,    ///< iterative cmp of a replicated key against data rows
    Clmul,     ///< AND followed by XOR-reduction tree
    AddStep,   ///< one bit-plane of a bit-serial add (dual-row activation
               ///< + carry-latch update + sum write-back)
    SubStep,   ///< one bit-plane of a bit-serial subtract (adds a
               ///< single-row sense for the borrow term)
    CmpStep,   ///< one bit-plane of a bit-serial magnitude compare
               ///< (updates the lt/gt latches, writes nothing)
};

const char *toString(BitlineOp op);

/** Static configuration of one sub-array. */
struct SubArrayParams
{
    /** Word-lines (rows). The paper's optimal L3/L2 sub-arrays are
     *  512x512 and 128x512 bits. */
    std::size_t rows = 512;

    /** Bit-lines (columns). Must be a multiple of 8 * kBlockSize. */
    std::size_t cols = 512;

    /** Cycles for one baseline read/write sub-array access. */
    Cycles accessDelay = 2;

    /** Delay multiplier for and/or/xor in-place ops (Section VI-C: 3x). */
    double logicDelayFactor = 3.0;

    /** Delay multiplier for the remaining CC ops (2x). */
    double otherDelayFactor = 2.0;

    /** Baseline sub-array access energy in pJ (excl. H-tree). */
    EnergyPJ accessEnergy = 50.0;

    /** Energy multipliers per Section VI-C. @{ */
    double cmpEnergyFactor = 1.5;   ///< cmp / search / clmul
    double copyEnergyFactor = 2.0;  ///< copy / buz / not
    double logicEnergyFactor = 2.5; ///< and / or / xor (and nor)
    /** @} */

    /** Word-line underdrive applied during multi-row activation, as a
     *  fraction of nominal word-line voltage. Below ~0.8 the bias against
     *  write prevents read disturb (Jeloka et al. measured robust
     *  operation with up to 64 rows active). */
    double wordlineUnderdrive = 0.7;

    /** Maximum simultaneously-active word-lines that remain disturb-free
     *  at the configured underdrive (64 demonstrated on silicon). */
    unsigned maxSafeActiveRows = 64;

    /** Number of 64-byte cache blocks stored per row. */
    std::size_t blocksPerRow() const { return cols / (8 * kBlockSize); }

    /** Number of block partitions (column groups sharing bit-lines). */
    std::size_t blockPartitions() const { return blocksPerRow(); }

    /** Total data capacity in bytes. */
    std::size_t capacityBytes() const { return rows * cols / 8; }

    /** Delay of @p op in cycles. */
    Cycles opDelay(BitlineOp op) const;

    /** Energy of @p op over one full row, in pJ (array component only). */
    EnergyPJ opEnergy(BitlineOp op) const;

    /** Throws FatalError if the configuration is inconsistent. */
    void validate() const;
};

} // namespace ccache::sram

#endif // CCACHE_SRAM_SUBARRAY_PARAMS_HH
