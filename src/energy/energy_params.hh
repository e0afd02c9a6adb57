/**
 * @file
 * Energy constants of the Compute Cache evaluation.
 *
 * The per-access cache numbers transcribe the paper directly:
 *  - Table I: per-read H-tree (cache-ic) vs bit-array (cache-access)
 *    energy for L1-D / L2 / L3-slice;
 *  - Table V: energy per 64-byte cache block for every operation at every
 *    cache level.
 * Core, NoC and DRAM energies are McPAT-derived constants calibrated so
 * the microbenchmark energy breakdowns (Figure 7b) reproduce the paper's
 * component proportions.
 */

#ifndef CCACHE_ENERGY_ENERGY_PARAMS_HH
#define CCACHE_ENERGY_ENERGY_PARAMS_HH

#include "common/types.hh"

namespace ccache::energy {

/** Cache operations with per-level energy entries (Table V rows). */
enum class CacheOp {
    Write,
    Read,
    Cmp,
    Copy,
    Search,
    Not,
    Logic,   ///< and / or / xor / nor
    Buz,     ///< zeroing; paper folds it into the copy row
    Clmul,   ///< carryless multiply; costed as cmp per Section VI-C
};

const char *toString(CacheOp op);

/** Per-read energy split of one cache level (Table I row). */
struct CacheReadSplit
{
    EnergyPJ htree;   ///< in-cache interconnect ("cache-ic")
    EnergyPJ access;  ///< bit-array access ("cache-access")

    EnergyPJ total() const { return htree + access; }
};

/** Table I row of @p level. */
constexpr CacheReadSplit
readSplit(CacheLevel level)
{
    switch (level) {
      case CacheLevel::L1: return {179.0, 116.0};
      case CacheLevel::L2: return {675.0, 127.0};
      case CacheLevel::L3: return {1985.0, 467.0};
    }
    return {1985.0, 467.0};
}

/**
 * Table V: energy (pJ) per 64-byte block of @p op at @p level.
 * The in-place CC operations avoid most of the H-tree transfer, which
 * is why cmp at L3 costs 840 pJ against a 2452 pJ read.
 */
EnergyPJ cacheOpEnergy(CacheLevel level, CacheOp op);

/** Fraction of a cache op's energy spent in the H-tree interconnect
 *  (rather than the bit array), used to split Table V entries into
 *  the cache-ic / cache-access components of Figure 7b. */
double htreeFraction(CacheLevel level, CacheOp op);

/**
 * Core energy per committed instruction, in pJ. McPAT-style constant
 * for a 2.66 GHz out-of-order core: fetch/decode/rename/ROB dominate,
 * which is why Figure 3 attributes ~75% of a scalar kernel's energy
 * to instruction processing.
 */
inline constexpr EnergyPJ kCorePerInstr = 750.0;

/** Extra core energy for a vector (SIMD or CC) instruction. */
inline constexpr EnergyPJ kCoreVectorExtra = 250.0;

/** Ring NoC energy per 8-byte flit per hop (link + router). */
inline constexpr EnergyPJ kNocPerFlitHop = 62.0;

/** DRAM access energy per 64-byte block. */
inline constexpr EnergyPJ kDramPerBlock = 15000.0;

/** Static power in watts. @{ */
inline constexpr double kCoreStaticW = 0.80;    ///< per core
inline constexpr double kUncoreStaticW = 2.20;  ///< caches + ring, whole chip
/** @} */

/** Near-place logic unit energy per 64-byte operation (pJ): operands
 *  cross the H-tree twice plus the logic-unit datapath. */
inline constexpr EnergyPJ kNearPlaceLogicPerBlock = 180.0;

/** ECC logic-unit check of one 64-byte block (pJ): eight (72,64)
 *  SECDED syndrome computations plus the correction mux
 *  (Section IV-I alternative 1). */
inline constexpr EnergyPJ kEccCheckPerBlock = 90.0;

} // namespace ccache::energy

#endif // CCACHE_ENERGY_ENERGY_PARAMS_HH
