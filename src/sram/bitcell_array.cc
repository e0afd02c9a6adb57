#include "sram/bitcell_array.hh"

#include <algorithm>

#include "common/logging.hh"

namespace ccache::sram {

BitcellArray::BitcellArray(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), cells_(rows, BitVector(cols))
{
    CC_ASSERT(rows > 0 && cols > 0, "empty bit-cell array");
}

void
BitcellArray::writeRow(std::size_t row, const BitVector &data)
{
    CC_ASSERT(row < rows_, "row ", row, " out of range");
    CC_ASSERT(data.size() == cols_, "row data width ", data.size(),
              " != ", cols_);
    cells_[row] = data;
}

const BitVector &
BitcellArray::row(std::size_t r) const
{
    CC_ASSERT(r < rows_, "row ", r, " out of range");
    return cells_[r];
}

void
BitcellArray::writeWordsThroughBitlines(std::size_t row, std::size_t word_lo,
                                        const BitVector &data)
{
    CC_ASSERT(row < rows_, "row ", row, " out of range");
    CC_ASSERT(data.size() % 64 == 0, "word write needs whole words");
    const auto &src = data.words();
    auto &dst = cells_[row].words();
    CC_ASSERT(word_lo + src.size() <= dst.size(), "word span (", word_lo,
              " + ", src.size(), ") beyond row width");
    std::copy(src.begin(), src.end(), dst.begin() + word_lo);
}

BitcellArray::DigitalSense
BitcellArray::activateWords(const std::vector<std::size_t> &active_rows,
                            double underdrive, bool track_margin)
{
    CC_ASSERT(!active_rows.empty(), "activation needs at least one row");
    for (auto r : active_rows)
        CC_ASSERT(r < rows_, "row ", r, " out of range");

    DigitalSense sense;
    sense.andBits = BitVector(cols_);
    sense.andBits.setAll(true);
    sense.norBits = BitVector(cols_);
    sense.norBits.setAll(true);
    auto &and_w = sense.andBits.words();
    auto &nor_w = sense.norBits.words();
    const std::size_t nwords = and_w.size();

    // Saturating 2-bit per-column pull counters, used for the margin: a
    // column pulled by exactly one cell sits at 0.4, margin 0.1; every
    // other level (1.0 or clamped 0.0) is a full 0.5 from Vref.
    std::vector<std::uint64_t> pulled_once;
    std::vector<std::uint64_t> pulled_twice;
    if (track_margin) {
        pulled_once.assign(2 * nwords, 0);
        pulled_twice.assign(2 * nwords, 0);
    }

    for (auto r : active_rows) {
        const auto &row_w = cells_[r].words();
        for (std::size_t w = 0; w < nwords; ++w) {
            const std::uint64_t ones = row_w[w];
            const std::uint64_t zeros = ~ones;
            // Cells storing '0' discharge BL (AND sense); cells storing
            // '1' discharge BLB (NOR sense).
            and_w[w] &= ones;
            nor_w[w] &= zeros;
            if (track_margin) {
                pulled_twice[w] |= pulled_once[w] & zeros;
                pulled_once[w] |= zeros;
                pulled_twice[nwords + w] |= pulled_once[nwords + w] & ones;
                pulled_once[nwords + w] |= ones;
            }
        }
    }

    if (track_margin) {
        // Tail bits beyond cols_ are garbage in the complement-based
        // counters; mask them with the (trimmed) all-ones NOR initial
        // pattern mirrored by a fresh all-ones vector.
        BitVector mask(cols_);
        mask.setAll(true);
        const auto &mask_w = mask.words();
        bool any_single = false;
        for (std::size_t w = 0; w < nwords && !any_single; ++w) {
            std::uint64_t single =
                ((pulled_once[w] & ~pulled_twice[w]) |
                 (pulled_once[nwords + w] & ~pulled_twice[nwords + w])) &
                mask_w[w];
            any_single = single != 0;
        }
        sense.margin = any_single ? kPullStrength - 0.5 : 0.5;
    }

    // Read-disturb, word-wide: bl < 0.5 iff at least one activated cell
    // stores '0' in that column, i.e. the complement of the AND sense;
    // every activated row collapses to the AND of the activated rows.
    if (active_rows.size() > 1 && underdrive > kDisturbThreshold) {
        for (auto r : active_rows) {
            auto &row_w = cells_[r].words();
            for (std::size_t w = 0; w < nwords; ++w)
                row_w[w] &= and_w[w];
        }
    }

    return sense;
}

} // namespace ccache::sram
