#include "energy/energy_model.hh"

#include <sstream>

#include "common/bit_util.hh"
#include "common/logging.hh"

namespace ccache::energy {

EnergyBreakdown &
EnergyBreakdown::operator+=(const EnergyBreakdown &other)
{
    core += other.core;
    l1Access += other.l1Access;
    l1Ic += other.l1Ic;
    l2Access += other.l2Access;
    l2Ic += other.l2Ic;
    l3Access += other.l3Access;
    l3Ic += other.l3Ic;
    noc += other.noc;
    dram += other.dram;
    return *this;
}

EnergyModel::EnergyModel()
{
    for (CacheLevel level :
         {CacheLevel::L1, CacheLevel::L2, CacheLevel::L3}) {
        for (std::size_t o = 0; o < kOps; ++o) {
            CacheOp op = static_cast<CacheOp>(o);
            OpCost &c =
                opCost_[static_cast<unsigned>(level) - 1][o];
            c.perBlock = cacheOpEnergy(level, op);
            c.icFrac = htreeFraction(level, op);
        }
    }
}

void
EnergyModel::addCacheAccess(CacheLevel level, EnergyPJ pj)
{
    switch (level) {
      case CacheLevel::L1: dyn_.l1Access += pj; break;
      case CacheLevel::L2: dyn_.l2Access += pj; break;
      case CacheLevel::L3: dyn_.l3Access += pj; break;
    }
}

void
EnergyModel::addCacheIc(CacheLevel level, EnergyPJ pj)
{
    switch (level) {
      case CacheLevel::L1: dyn_.l1Ic += pj; break;
      case CacheLevel::L2: dyn_.l2Ic += pj; break;
      case CacheLevel::L3: dyn_.l3Ic += pj; break;
    }
}

void
EnergyModel::chargeCacheOp(CacheLevel level, CacheOp op,
                           std::uint64_t blocks)
{
    const OpCost &c = opCost_[static_cast<unsigned>(level) - 1]
                             [static_cast<std::size_t>(op)];
    EnergyPJ per_block = c.perBlock;
    double ic_frac = c.icFrac;
    EnergyPJ total = per_block * static_cast<double>(blocks);
    addCacheIc(level, total * ic_frac);
    addCacheAccess(level, total * (1.0 - ic_frac));
}

void
EnergyModel::chargeInstructions(std::uint64_t n)
{
    dyn_.core += kCorePerInstr * static_cast<double>(n);
}

void
EnergyModel::chargeVectorInstructions(std::uint64_t n)
{
    dyn_.core += (kCorePerInstr + kCoreVectorExtra) * static_cast<double>(n);
}

void
EnergyModel::chargeNoc(std::uint64_t bytes, unsigned hops)
{
    std::uint64_t flits = divCeil(bytes, 8);
    dyn_.noc += kNocPerFlitHop * static_cast<double>(flits) *
        static_cast<double>(hops);
}

void
EnergyModel::chargeDram(std::uint64_t blocks)
{
    dyn_.dram += kDramPerBlock * static_cast<double>(blocks);
}

void
EnergyModel::chargeNearPlaceLogic(CacheLevel level, std::uint64_t blocks)
{
    // The logic unit sits at the cache controller; its datapath energy is
    // attributed to the cache access component of the level it serves.
    addCacheAccess(level,
                   kNearPlaceLogicPerBlock * static_cast<double>(blocks));
}

EnergyTotals
EnergyModel::totals(Cycles elapsed, unsigned cores,
                    double uncore_fraction) const
{
    EnergyTotals t;
    t.coreDynamic = dyn_.core;
    t.uncoreDynamic = dyn_.dataMovement();
    double seconds = cyclesToSeconds(elapsed);
    t.coreStatic = kCoreStaticW * cores * seconds * 1e12;
    t.uncoreStatic = kUncoreStaticW * uncore_fraction * seconds * 1e12;
    return t;
}

std::string
EnergyModel::report() const
{
    std::ostringstream os;
    os << "core          " << dyn_.core << " pJ\n"
       << "l1-access     " << dyn_.l1Access << " pJ\n"
       << "l1-ic         " << dyn_.l1Ic << " pJ\n"
       << "l2-access     " << dyn_.l2Access << " pJ\n"
       << "l2-ic         " << dyn_.l2Ic << " pJ\n"
       << "l3-access     " << dyn_.l3Access << " pJ\n"
       << "l3-ic         " << dyn_.l3Ic << " pJ\n"
       << "noc           " << dyn_.noc << " pJ\n"
       << "dram          " << dyn_.dram << " pJ\n"
       << "dynamic-total " << dyn_.dynamicTotal() << " pJ\n";
    return os.str();
}

} // namespace ccache::energy
