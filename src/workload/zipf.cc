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

    // Unnormalized pmf and its sum, then each weight scaled in place to
    // n * pmf: columns of average height 1. One pass each, no RNG.
    prob_.resize(n);
    for (std::size_t r = 0; r < n; ++r) {
        prob_[r] = 1.0 / std::pow(static_cast<double>(r + 1), s);
        norm_ += prob_[r];
    }
    for (double &p : prob_)
        p = p * static_cast<double>(n) / norm_;

    // Vose's alias method: every column keeps its own mass up to
    // prob_[c] and borrows the remainder from exactly one donor
    // (alias_[c]). prob_ holds each open column's remaining height; a
    // column leaves the under-full list for good, so its entry is then
    // final.
    alias_.resize(n);
    for (std::size_t r = 0; r < n; ++r)
        alias_[r] = static_cast<std::uint32_t>(r);

    // Worklists of under-full and over-full columns, as two stacks in
    // one array: under-full grows up from the front, over-full down
    // from the back. A column is on at most one list, so they never
    // meet. Zipf weights are monotonically decreasing, so filling the
    // lists in rank order keeps construction deterministic.
    std::vector<std::uint32_t> work(n);
    std::size_t small = 0;   ///< work[0, small): under-full
    std::size_t large = n;   ///< work[large, n): over-full, top at large
    for (std::size_t r = 0; r < n; ++r) {
        if (prob_[r] < 1.0)
            work[small++] = static_cast<std::uint32_t>(r);
        else
            work[--large] = static_cast<std::uint32_t>(r);
    }

    while (small > 0 && large < n) {
        std::uint32_t s_col = work[--small];
        std::uint32_t l_col = work[large++];
        alias_[s_col] = l_col;
        prob_[l_col] = (prob_[l_col] + prob_[s_col]) - 1.0;
        if (prob_[l_col] < 1.0)
            work[small++] = l_col;
        else
            work[--large] = l_col;
    }
    // Leftovers are exactly-full columns up to FP rounding.
    for (std::size_t i = 0; i < small; ++i)
        prob_[work[i]] = 1.0;
    for (std::size_t i = large; i < n; ++i)
        prob_[work[i]] = 1.0;
}

double
ZipfSampler::pmf(std::size_t rank) const
{
    CC_ASSERT(rank < prob_.size(), "zipf pmf rank out of range");
    return 1.0 /
           (std::pow(static_cast<double>(rank + 1), exponent_) * norm_);
}

} // namespace ccache::workload
