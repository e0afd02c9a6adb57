/**
 * @file
 * Geometry and circuit parameters of a compute-capable SRAM sub-array.
 *
 * The sub-array is a functional model: it computes what the bit-lines
 * sense and serves as the oracle of the controller's circuit check. Op
 * latency and energy come from the controller's Section IV-J latencies
 * and the Table I / Table V energies (energy/energy_params.hh).
 */

#ifndef CCACHE_SRAM_SUBARRAY_PARAMS_HH
#define CCACHE_SRAM_SUBARRAY_PARAMS_HH

#include <cstddef>

#include "common/types.hh"

namespace ccache::sram {

/** Static configuration of one sub-array. */
struct SubArrayParams
{
    /** Word-lines (rows). The paper's optimal L3/L2 sub-arrays are
     *  512x512 and 128x512 bits. */
    std::size_t rows = 512;

    /** Bit-lines (columns). Must be a multiple of 8 * kBlockSize. */
    std::size_t cols = 512;

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

    /** Throws FatalError if the configuration is inconsistent. */
    void validate() const;
};

} // namespace ccache::sram

#endif // CCACHE_SRAM_SUBARRAY_PARAMS_HH
