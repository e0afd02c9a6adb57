/**
 * @file
 * Behavioural model of a 6T SRAM bit-cell array with multi-row activation.
 *
 * The array stores real bits and models the analog bit-line discharge that
 * bit-line computing relies on: all bit-lines precharge to VDD; activating
 * word-lines connects the selected cells, and any cell storing '0' pulls
 * its bit-line (BL) low while any cell storing '1' pulls the complement
 * bit-line (BLB) low. Sensing BL against a reference yields AND of the
 * activated rows; sensing BLB yields NOR (paper Figure 2).
 *
 * The model also reproduces the read-disturb failure mode: multi-row
 * activation without sufficient word-line underdrive can flip cells that
 * store '1' on a discharged bit-line (Section II-B).
 */

#ifndef CCACHE_SRAM_BITCELL_ARRAY_HH
#define CCACHE_SRAM_BITCELL_ARRAY_HH

#include <cstdint>
#include <vector>

#include "common/bitvector.hh"

namespace ccache::sram {

/** Dense bit storage plus the activation/discharge circuit model. */
class BitcellArray
{
  public:
    BitcellArray(std::size_t rows, std::size_t cols);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }

    /** Overwrite an entire row. @p data must have cols() bits. */
    void writeRow(std::size_t row, const BitVector &data);

    /**
     * Packed-row accessor: the row's backing bit vector, without copying.
     * Bit `c` of the row is bit `c % 64` of `row(r).words()[c / 64]`; this
     * is the representation the bit-line model operates on (DESIGN.md
     * §13).
     */
    const BitVector &row(std::size_t r) const;

    /**
     * Overwrite words `[word_lo, word_lo + data.words().size())` of
     * @p row through the write port, word-at-a-time. @p data must be a
     * whole number of 64-bit words (a block partition always is).
     */
    void writeWordsThroughBitlines(std::size_t row, std::size_t word_lo,
                                   const BitVector &data);

    /** What the single-ended sense amplifiers observe at Vref = 0.5. */
    struct DigitalSense
    {
        /** Per column: every activated cell stores '1' (the BL sense). */
        BitVector andBits;

        /** Per column: no activated cell stores '1' (the BLB sense). */
        BitVector norBits;

        /** Smallest |level - 0.5| over both bit-lines, or -1.0 when margin
         *  tracking was not requested. */
        double margin = -1.0;
    };

    /**
     * Activate a set of word-lines simultaneously and sense both
     * bit-lines of every column, word-at-a-time over the packed rows.
     *
     * Each activated cell pulls its line down by kPullStrength = 0.6 VDD,
     * so a bit-line sits at 1.0 (no pulling cell), 0.4 (exactly one) or
     * 0.0 (two or more, clamped). Against Vref = 0.5 that reduces the BL
     * sense to "no cell stores '0'" (AND) and the BLB sense to "no cell
     * stores '1'" (NOR), and the margin to 0.1 iff some column has
     * exactly one puller on either line, else 0.5. The per-column analog
     * form of this model is the test oracle in tests/sram/.
     *
     * @param active_rows word-lines to raise (1 for a normal read,
     *                    2 for an in-place compute, up to 64 shown safe
     *                    on silicon).
     * @param underdrive  word-line voltage as a fraction of nominal; the
     *                    bias against write that prevents disturb. Above
     *                    kDisturbThreshold with more than one active row,
     *                    every cell on a discharged BL is written to '0',
     *                    as a real array would (read disturb).
     * @param track_margin compute DigitalSense::margin.
     */
    DigitalSense activateWords(const std::vector<std::size_t> &active_rows,
                               double underdrive,
                               bool track_margin = false);

    /** Word-line underdrive above which multi-row activation disturbs. */
    static constexpr double kDisturbThreshold = 0.85;

    /** Per-cell pull-down strength (fraction of VDD per pulling cell). */
    static constexpr double kPullStrength = 0.6;

  private:
    std::size_t rows_;
    std::size_t cols_;
    std::vector<BitVector> cells_;
};

} // namespace ccache::sram

#endif // CCACHE_SRAM_BITCELL_ARRAY_HH
