/**
 * @file
 * Quantized GEMM on the bit-serial Compute Cache ISA (the Neural Cache
 * workload, arXiv 1805.03718): C = A x B with 8-bit signed weights and
 * activations accumulated into 32-bit lanes.
 *
 * The Compute Cache version keeps B resident in transposed (bit-slice)
 * form -- one 32-bit slice stack per B row, all n columns as parallel
 * lanes -- and runs the inner product as bit-serial multiply-accumulate:
 * for every (i, kk) the scalar A[i][kk] is broadcast into a slice stack,
 * cc_mul forms the partial products for all n columns at once, and
 * cc_add folds them into the accumulator stack. One untranspose per
 * output row returns C to the packed int32 form. The baseline streams B
 * through the core with scalar (or 32-byte SIMD) multiply-accumulates.
 */

#ifndef CCACHE_APPS_GEMM_HH
#define CCACHE_APPS_GEMM_HH

#include <cstdint>
#include <vector>

#include "apps/app_common.hh"

namespace ccache::apps {

/** Quantized-GEMM configuration. */
struct QuantGemmConfig
{
    std::size_t m = 4;    ///< output rows
    std::size_t k = 16;   ///< inner dimension
    /** Columns = bit-serial lanes; a multiple of 512 keeps the slice
     *  rows whole 64-byte blocks. */
    std::size_t n = 512;

    std::uint64_t seed = 0x9e3779b9;

    /** Accumulator lane width (fixed by the int8 x int8 -> int32
     *  quantization scheme). */
    static constexpr std::size_t kAccBits = 32;
};

/** The application. */
class QuantGemm
{
  public:
    explicit QuantGemm(const QuantGemmConfig &config = QuantGemmConfig{});

    AppRunResult run(sim::System &sys, Engine engine);

    const std::vector<std::int8_t> &a() const { return a_; }
    const std::vector<std::int8_t> &b() const { return b_; }
    const std::vector<std::int32_t> &expected() const { return expected_; }

    /** The product computed by the last run. */
    const std::vector<std::int32_t> &computed() const { return computed_; }

  private:
    AppRunResult runBaseline(sim::System &sys, Engine engine);
    AppRunResult runCc(sim::System &sys);

    std::uint64_t checksum() const;

    QuantGemmConfig config_;
    std::vector<std::int8_t> a_;   ///< m x k
    std::vector<std::int8_t> b_;   ///< k x n
    std::vector<std::int32_t> expected_;
    std::vector<std::int32_t> computed_;
};

} // namespace ccache::apps

#endif // CCACHE_APPS_GEMM_HH
