/**
 * @file
 * Component-resolved energy accounting for one simulated execution.
 *
 * Dynamic energy is attributed to the components the paper's Figure 7b
 * plots (core, per-level cache-access, per-level cache-ic, noc, dram);
 * static energy is derived from elapsed cycles and the static power
 * constants (Figure 7c / 9a / 11 split static into core and uncore).
 */

#ifndef CCACHE_ENERGY_ENERGY_MODEL_HH
#define CCACHE_ENERGY_ENERGY_MODEL_HH

#include <cstdint>
#include <string>

#include "common/types.hh"
#include "energy/energy_params.hh"

namespace ccache::energy {

/** Dynamic-energy components in pJ. */
struct EnergyBreakdown
{
    EnergyPJ core = 0.0;

    EnergyPJ l1Access = 0.0;
    EnergyPJ l1Ic = 0.0;
    EnergyPJ l2Access = 0.0;
    EnergyPJ l2Ic = 0.0;
    EnergyPJ l3Access = 0.0;
    EnergyPJ l3Ic = 0.0;

    EnergyPJ noc = 0.0;
    EnergyPJ dram = 0.0;

    EnergyPJ cacheAccess() const { return l1Access + l2Access + l3Access; }
    EnergyPJ cacheIc() const { return l1Ic + l2Ic + l3Ic; }

    /** Everything that is not core: the paper's "data movement". */
    EnergyPJ dataMovement() const
    {
        return cacheAccess() + cacheIc() + noc + dram;
    }

    EnergyPJ dynamicTotal() const { return core + dataMovement(); }

    EnergyBreakdown &operator+=(const EnergyBreakdown &other);
};

/** Static + dynamic totals for the Figure 7c style plots. */
struct EnergyTotals
{
    EnergyPJ coreDynamic = 0.0;
    EnergyPJ uncoreDynamic = 0.0;
    EnergyPJ coreStatic = 0.0;
    EnergyPJ uncoreStatic = 0.0;

    EnergyPJ total() const
    {
        return coreDynamic + uncoreDynamic + coreStatic + uncoreStatic;
    }
};

/** Accumulates energy events during a simulation. */
class EnergyModel
{
  public:
    EnergyModel();

    /** Charge a cache operation from the Table V cost model, split into
     *  access and interconnect components. */
    void chargeCacheOp(CacheLevel level, CacheOp op,
                       std::uint64_t blocks = 1);

    /** Charge @p n scalar instructions through the core pipeline. */
    void chargeInstructions(std::uint64_t n);

    /** Charge @p n vector (SIMD or CC) instructions. */
    void chargeVectorInstructions(std::uint64_t n);

    /** Charge a NoC transfer of @p bytes over @p hops ring hops. */
    void chargeNoc(std::uint64_t bytes, unsigned hops);

    /** Charge a DRAM block access. */
    void chargeDram(std::uint64_t blocks = 1);

    /** Charge the near-place logic unit of @p level's controller for
     *  @p blocks operations. */
    void chargeNearPlaceLogic(CacheLevel level, std::uint64_t blocks);

    /** Direct component charges for model extensions. @{ */
    void addCore(EnergyPJ pj) { dyn_.core += pj; }
    void addCacheAccess(CacheLevel level, EnergyPJ pj);
    void addCacheIc(CacheLevel level, EnergyPJ pj);
    /** @} */

    const EnergyBreakdown &dynamic() const { return dyn_; }

    /** Static + dynamic totals after @p elapsed cycles with @p cores
     *  active cores. @p uncore_fraction scales the chip-wide uncore
     *  static power to the share attributable to this experiment (one
     *  active core of eight owns 1/8 of the caches and ring). */
    EnergyTotals totals(Cycles elapsed, unsigned cores = 1,
                        double uncore_fraction = 1.0) const;

    void reset() { dyn_ = EnergyBreakdown{}; }

    /** One line per component, for dumps and EXPERIMENTS.md tables. */
    std::string report() const;

  private:
    /** Per-(level, op) Table V cost, precomputed at construction:
     *  chargeCacheOp runs once per simulated cache access, and the
     *  switch-ladder lookups dominate it. The cached values feed the
     *  exact arithmetic the uncached path used, so charged energies are
     *  bit-identical (DESIGN.md §13). */
    struct OpCost
    {
        EnergyPJ perBlock;
        double icFrac;
    };
    static constexpr std::size_t kLevels = 3;
    static constexpr std::size_t kOps =
        static_cast<std::size_t>(CacheOp::Clmul) + 1;

    EnergyBreakdown dyn_;
    OpCost opCost_[kLevels][kOps];
};

} // namespace ccache::energy

#endif // CCACHE_ENERGY_ENERGY_MODEL_HH
