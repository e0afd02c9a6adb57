/**
 * @file
 * Execution engines: the conventional-core baselines (scalar and 32-byte
 * SIMD, the paper's "Base" and "Base_32") and the Compute Cache engine.
 *
 * The baseline engines execute bulk kernels as real load/store streams
 * through the coherent hierarchy — every access moves data, charges
 * energy and contributes latency to the core cost model — so baseline
 * numbers emerge from the same substrate the CC engine uses.
 */

#ifndef CCACHE_SIM_ENGINES_HH
#define CCACHE_SIM_ENGINES_HH

#include <cstdint>

#include "cache/hierarchy.hh"
#include "cc/cc_controller.hh"
#include "sim/bulk_ops.hh"
#include "sim/core_model.hh"

namespace ccache::sim {

/** Conventional-core engine with configurable vector width. */
class BaselineEngine
{
  public:
    /**
     * @param vector_bytes 8 for the scalar core, 32 for Base_32's SIMD.
     */
    BaselineEngine(cache::Hierarchy &hier, energy::EnergyModel *energy,
                   StatRegistry *stats, std::size_t vector_bytes);

    std::size_t vectorBytes() const { return vectorBytes_; }

    /** memcpy-style copy of @p n bytes. */
    KernelResult copy(CoreId core, Addr src, Addr dst, std::size_t n);

    /** memcmp-style equality compare; value = 1 when equal. */
    KernelResult compare(CoreId core, Addr a, Addr b, std::size_t n);

    /** Scan @p n bytes for the 64-byte key at @p key; value = number of
     *  matching 64-byte chunks. */
    KernelResult search(CoreId core, Addr data, Addr key, std::size_t n);

    /** dst[i] = a[i] | b[i] over @p n bytes. */
    KernelResult logicalOr(CoreId core, Addr a, Addr b, Addr dst,
                           std::size_t n);

    /** dst[i] = a[i] & b[i] over @p n bytes. */
    KernelResult logicalAnd(CoreId core, Addr a, Addr b, Addr dst,
                            std::size_t n);

    /** Dispatch by kernel id (bench convenience). For Search, @p b is
     *  the key address. */
    KernelResult run(BulkKernel k, CoreId core, Addr a, Addr b, Addr dst,
                     std::size_t n);

  private:
    /** Shared implementation of the element-wise logical kernels. */
    KernelResult logicalOp(CoreId core, Addr a, Addr b, Addr dst,
                           std::size_t n, bool is_and);

    /** One vector load; returns chunk data via @p out. */
    void load(CoreCostModel &cost, CoreId core, Addr addr,
              std::uint8_t *out);

    /** One vector store. */
    void store(CoreCostModel &cost, CoreId core, Addr addr,
               const std::uint8_t *data);

    cache::Hierarchy &hier_;
    energy::EnergyModel *energy_;
    StatRegistry *stats_;
    std::size_t vectorBytes_;
};

/** Compute Cache engine: drives the CC controller with Table II
 *  instructions chunked to the ISA limits. */
class CcEngine
{
  public:
    CcEngine(cache::Hierarchy &hier, cc::CcController &ctrl,
             energy::EnergyModel *energy, StatRegistry *stats);

    /** Largest vector issued per CC instruction. */
    static constexpr std::size_t kChunk = cc::kMaxVectorBytes;

    KernelResult copy(CoreId core, Addr src, Addr dst, std::size_t n);
    KernelResult compare(CoreId core, Addr a, Addr b, std::size_t n);
    KernelResult search(CoreId core, Addr data, Addr key, std::size_t n);
    KernelResult logicalOr(CoreId core, Addr a, Addr b, Addr dst,
                           std::size_t n);
    KernelResult buz(CoreId core, Addr dst, std::size_t n);

    KernelResult run(BulkKernel k, CoreId core, Addr a, Addr b, Addr dst,
                     std::size_t n);

  private:
    cache::Hierarchy &hier_;
    cc::CcController &ctrl_;
    energy::EnergyModel *energy_;
    StatRegistry *stats_;
};

} // namespace ccache::sim

#endif // CCACHE_SIM_ENGINES_HH
