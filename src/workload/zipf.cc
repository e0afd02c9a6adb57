#include "workload/zipf.hh"

#include <cmath>

#include "common/logging.hh"

namespace ccache::workload {

ZipfSampler::ZipfSampler(std::size_t n, double s) : exponent_(s)
{
    if (n == 0)
        CC_FATAL("zipf sampler needs at least one rank");
    if (n > 0xffffffffULL)
        CC_FATAL("zipf alias table is 32-bit indexed: ", n,
                 " ranks do not fit");
    if (!(s >= 0.0))
        CC_FATAL("zipf exponent must be non-negative, not ", s);

    // Unnormalized pmf and its sum. One pass, no RNG.
    std::vector<double> weight(n);
    for (std::size_t r = 0; r < n; ++r) {
        weight[r] = 1.0 / std::pow(static_cast<double>(r + 1), s);
        norm_ += weight[r];
    }

    // Vose's alias method: split the scaled pmf into n columns of
    // average height 1; every column keeps its own mass up to prob_[c]
    // and borrows the remainder from exactly one donor (alias_[c]).
    prob_.assign(n, 1.0);
    alias_.resize(n);
    for (std::size_t r = 0; r < n; ++r)
        alias_[r] = static_cast<std::uint32_t>(r);

    std::vector<double> scaled(n);
    for (std::size_t r = 0; r < n; ++r)
        scaled[r] = weight[r] * static_cast<double>(n) / norm_;

    // Worklists of under-full and over-full columns. Zipf weights are
    // monotonically decreasing, so filling the lists in rank order
    // keeps construction deterministic.
    std::vector<std::uint32_t> small, large;
    small.reserve(n);
    large.reserve(n);
    for (std::size_t r = 0; r < n; ++r) {
        if (scaled[r] < 1.0)
            small.push_back(static_cast<std::uint32_t>(r));
        else
            large.push_back(static_cast<std::uint32_t>(r));
    }

    while (!small.empty() && !large.empty()) {
        std::uint32_t s_col = small.back();
        small.pop_back();
        std::uint32_t l_col = large.back();
        large.pop_back();
        prob_[s_col] = scaled[s_col];
        alias_[s_col] = l_col;
        scaled[l_col] = (scaled[l_col] + scaled[s_col]) - 1.0;
        if (scaled[l_col] < 1.0)
            small.push_back(l_col);
        else
            large.push_back(l_col);
    }
    // Leftovers are exactly-full columns up to FP rounding.
    for (std::uint32_t c : large)
        prob_[c] = 1.0;
    for (std::uint32_t c : small)
        prob_[c] = 1.0;
}

double
ZipfSampler::pmf(std::size_t rank) const
{
    CC_ASSERT(rank < prob_.size(), "zipf pmf rank out of range");
    return 1.0 /
           (std::pow(static_cast<double>(rank + 1), exponent_) * norm_);
}

} // namespace ccache::workload
