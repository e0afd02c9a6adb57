/**
 * @file
 * Near-place Compute Cache logic unit (Section IV-J).
 *
 * When operand locality does not hold, the cache controller's logic unit
 * executes the operation "near" the cache: source operands are read from
 * the sub-arrays into controller registers (crossing the H-tree), the
 * logic unit computes, and the result is written back. This keeps the
 * benefit of not moving data up the hierarchy, but pays H-tree transfer
 * energy and provides only one vector logic unit of parallelism per
 * controller.
 */

#ifndef CCACHE_CC_NEAR_PLACE_UNIT_HH
#define CCACHE_CC_NEAR_PLACE_UNIT_HH

#include <cstdint>
#include <optional>

#include "cc/isa.hh"
#include "common/block.hh"
#include "common/stats.hh"
#include "energy/energy_model.hh"

namespace ccache::cc {

/** Outcome of a near-place block operation. */
struct NearPlaceResult
{
    Block result{};               ///< written back for RW ops
    std::uint64_t wordEqualMask = 0;  ///< cmp/search word-equality bits
    Cycles latency = 0;
};

/** Latency of one near-place block op at @p level. Section IV-J quotes
 *  22 cycles (vs 14 in-place) for the large lower-level arrays; smaller
 *  upper-level arrays have shorter H-tree paths. */
constexpr Cycles
nearPlaceLatency(CacheLevel level)
{
    switch (level) {
      case CacheLevel::L1: return 12;
      case CacheLevel::L2: return 17;
      case CacheLevel::L3: return 22;
    }
    return 22;
}

/** The logic unit itself: pure block-level compute plus cost model. */
class NearPlaceUnit
{
  public:
    NearPlaceUnit(energy::EnergyModel *energy, StatRegistry *stats);

    /**
     * Execute one block-wide op on operands already read into the
     * controller registers. Charges the sub-array reads (over the
     * H-tree), the logic-unit datapath and the result write-back at
     * @p level.
     */
    NearPlaceResult execute(CcOpcode op, CacheLevel level, const Block &a,
                            const Block &b,
                            std::size_t clmul_word_bits = 64);

    std::uint64_t opsExecuted() const { return ops_; }

  private:
    energy::EnergyModel *energy_;
    StatRegistry *stats_;
    /** Pre-registered "cc.near_place_ops" counter: execute() runs once
     *  per near-place block op, so it increments through a stable
     *  pointer instead of a name lookup. Null without a registry. */
    StatCounter *opsStat_ = nullptr;
    std::uint64_t ops_ = 0;
};

/**
 * Reference block-level semantics of every CC operation, shared by the
 * near-place unit and the in-place fast path (whose equivalence to the
 * bit-line circuit model is proven by tests).
 */
struct BlockCompute
{
    static Block apply(CcOpcode op, const Block &a, const Block &b,
                       std::size_t clmul_word_bits = 64);

    /** Word-granular equality mask (bit i: words i equal). */
    static std::uint64_t wordEqualMask(const Block &a, const Block &b);

    /** Carryless-multiply parities packed into a block: one result bit
     *  per clmul word, stored at the low bits. */
    static Block clmulPack(const Block &a, const Block &b,
                           std::size_t word_bits);
};

} // namespace ccache::cc

#endif // CCACHE_CC_NEAR_PLACE_UNIT_HH
