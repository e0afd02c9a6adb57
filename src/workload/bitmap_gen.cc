#include "workload/bitmap_gen.hh"

#include <algorithm>
#include <cmath>

#include "common/bit_util.hh"
#include "common/logging.hh"

namespace ccache::workload {

BitmapIndex::BitmapIndex(const BitmapGenParams &params) : params_(params)
{
    if (params.bins == 0 || params.rows == 0)
        CC_FATAL("degenerate index: bins and rows must be positive");

    Rng rng(params.seed);
    bins_.assign(params.bins, BitVector(params.rows));

    // Row -> bin assignment with Zipf-ish skew: equality-encoded bitmap
    // index means each row sets exactly one bin's bit.
    std::vector<double> cdf(params.bins);
    double sum = 0.0;
    for (std::size_t b = 0; b < params.bins; ++b) {
        sum += 1.0 / std::pow(static_cast<double>(b + 1), params.skew);
        cdf[b] = sum;
    }
    for (auto &v : cdf)
        v /= sum;

    // Guide table: guide[k] = #{cdf < k / kGuide}. A draw u in
    // [k / kGuide, (k + 1) / kGuide) lies above every entry before
    // guide[k] and below every entry from guide[k + 1] on, so its bin
    // (the count of entries < u) is guide[k] plus the entries < u in
    // between. kGuide is a power of two, so k = floor(u * kGuide) and
    // the bounds k / kGuide are exact in double.
    constexpr std::size_t kGuide = 4096;
    std::vector<std::size_t> guide(kGuide + 1);
    for (std::size_t k = 0, b = 0; k <= kGuide; ++k) {
        const double bound = static_cast<double>(k) / kGuide;
        while (b < params.bins && cdf[b] < bound)
            ++b;
        guide[k] = b;
    }

    // Rows are processed in 64-row chunks: each chunk accumulates one
    // word per bin on the stack and stores each touched word once,
    // instead of a read-modify-write into an ~8 MB working set per row.
    // Draw order (one uniform per row, ascending) and the chosen bins
    // are unchanged, so the index is bit-identical to the naive loop.
    std::vector<std::uint64_t> chunk(params.bins);
    for (std::size_t base = 0; base < params.rows; base += 64) {
        std::size_t n = std::min<std::size_t>(64, params.rows - base);
        std::fill(chunk.begin(), chunk.end(), 0);
        for (std::size_t i = 0; i < n; ++i) {
            double u = rng.uniform();
            // First bin with cdf >= u, clamped to the last bin.
            std::size_t k = static_cast<std::size_t>(u * kGuide);
            std::size_t b = guide[k];
            while (b < guide[k + 1] && cdf[b] < u)
                ++b;
            if (b >= params.bins)
                b = params.bins - 1;
            chunk[b] |= std::uint64_t{1} << i;
        }
        for (std::size_t b = 0; b < params.bins; ++b) {
            if (chunk[b])
                bins_[b].words()[base / 64] |= chunk[b];
        }
    }
}

std::size_t
BitmapIndex::binBytes() const
{
    return divCeil(params_.rows, 64) * 8;
}

BitVector
BitmapIndex::rangeQueryReference(std::size_t lo, std::size_t hi) const
{
    CC_ASSERT(lo <= hi && hi < bins_.size(), "bad bin range ", lo, "-",
              hi);
    BitVector acc(params_.rows);
    for (std::size_t b = lo; b <= hi; ++b)
        acc |= bins_[b];
    return acc;
}

BitVector
BitmapIndex::andReference(std::size_t a, std::size_t b) const
{
    CC_ASSERT(a < bins_.size() && b < bins_.size(), "bad bins");
    return bins_[a] & bins_[b];
}

} // namespace ccache::workload
