/**
 * @file
 * Bit-matrix multiplication over GF(2) (Section VI-B): C = A x B with
 * 256x256-bit matrices, the primitive behind error-correcting codes,
 * cryptography, bioinformatics and FFT bit-reversal.
 *
 * The optimized baseline mirrors the paper's blocked x86-CLMUL
 * implementation (AND + parity per row/column pair, matrix rows hot in
 * L1). The Compute Cache version keeps both matrices resident in the
 * cache and issues cc_clmul256 operations whose second operand — one
 * column-pair block of B-transpose — is replicated across partitions by
 * the controller exactly like a search key, with parities packed densely
 * into the result by the controller's shift register (paper reports a
 * 3.2x speedup and 98% instruction reduction).
 */

#ifndef CCACHE_APPS_BMM_HH
#define CCACHE_APPS_BMM_HH

#include <vector>

#include "apps/app_common.hh"
#include "common/bitvector.hh"

namespace ccache::apps {

/** BMM configuration. */
struct BmmConfig
{
    /** Matrix dimension in bits; must be a multiple of 512 so that rows
     *  pack into whole 64-byte blocks. The paper models 256 x 256. */
    std::size_t n = 256;

    std::uint64_t seed = 0xb1731;
};

/** A dense square bit matrix. */
class BitMatrix
{
  public:
    explicit BitMatrix(std::size_t n) : n_(n), rows_(n, BitVector(n)) {}

    std::size_t size() const { return n_; }
    BitVector &row(std::size_t i) { return rows_[i]; }
    const BitVector &row(std::size_t i) const { return rows_[i]; }

    bool get(std::size_t i, std::size_t j) const
    {
        return rows_[i].get(j);
    }
    void set(std::size_t i, std::size_t j, bool v) { rows_[i].set(j, v); }

    /** Transpose. */
    BitMatrix transposed() const;

    /** GF(2) product (reference implementation). */
    static BitMatrix multiply(const BitMatrix &a, const BitMatrix &b);

    bool operator==(const BitMatrix &other) const = default;

  private:
    std::size_t n_;
    std::vector<BitVector> rows_;
};

/** The application. */
class Bmm
{
  public:
    /** Cache level of the CC version (L1 per Section VI-B: the matrix
     *  reuse makes BMM L1-resident). */
    static constexpr CacheLevel kCcLevel = CacheLevel::L1;

    explicit Bmm(const BmmConfig &config = BmmConfig{});

    AppRunResult run(sim::System &sys, Engine engine);

    const BitMatrix &a() const { return a_; }
    const BitMatrix &b() const { return b_; }
    const BitMatrix &expected() const { return expected_; }

    /** The product matrix computed by the last run. */
    const BitMatrix &computed() const { return computed_; }

  private:
    AppRunResult runBaseline(sim::System &sys, Engine engine);
    AppRunResult runCc(sim::System &sys);

    /** Bytes per matrix row (n bits). */
    std::size_t rowBytes() const { return config_.n / 8; }

    /** Matrix rows per 64-byte block. */
    std::size_t rowsPerBlock() const { return kBlockSize / rowBytes(); }

    BmmConfig config_;
    BitMatrix a_;
    BitMatrix b_;
    BitMatrix bt_;
    BitMatrix expected_;
    BitMatrix computed_;
};

} // namespace ccache::apps

#endif // CCACHE_APPS_BMM_HH
