#include "energy/energy_params.hh"

#include "common/logging.hh"

namespace ccache::energy {

namespace {

/** Table V of the paper, energy in pJ per 64-byte cache block. */
struct TableVRow
{
    EnergyPJ write, read, cmp, copy, search, notOp, logic;
};

TableVRow
tableV(CacheLevel level)
{
    switch (level) {
      case CacheLevel::L3:
        return {2852.0, 2452.0, 840.0, 1340.0, 3692.0, 1340.0, 1672.0};
      case CacheLevel::L2:
        return {1154.0, 802.0, 242.0, 608.0, 1396.0, 608.0, 704.0};
      case CacheLevel::L1:
        return {375.0, 295.0, 186.0, 324.0, 561.0, 324.0, 387.0};
    }
    CC_PANIC("unknown cache level");
}

} // namespace

const char *
toString(CacheOp op)
{
    switch (op) {
      case CacheOp::Write: return "write";
      case CacheOp::Read: return "read";
      case CacheOp::Cmp: return "cmp";
      case CacheOp::Copy: return "copy";
      case CacheOp::Search: return "search";
      case CacheOp::Not: return "not";
      case CacheOp::Logic: return "logic";
      case CacheOp::Buz: return "buz";
      case CacheOp::Clmul: return "clmul";
    }
    return "?";
}

EnergyPJ
cacheOpEnergy(CacheLevel level, CacheOp op)
{
    TableVRow row = tableV(level);
    switch (op) {
      case CacheOp::Write: return row.write;
      case CacheOp::Read: return row.read;
      case CacheOp::Cmp: return row.cmp;
      case CacheOp::Copy: return row.copy;
      case CacheOp::Search: return row.search;
      case CacheOp::Not: return row.notOp;
      case CacheOp::Logic: return row.logic;
      // The paper folds zeroing into the copy row and costs clmul like
      // the other 1.5x comparison-class ops (Section VI-C).
      case CacheOp::Buz: return row.copy;
      case CacheOp::Clmul: return row.cmp;
    }
    CC_PANIC("unknown cache op");
}

double
htreeFraction(CacheLevel level, CacheOp op)
{
    const CacheReadSplit split = readSplit(level);
    const double read_fraction = split.htree / split.total();
    switch (op) {
      case CacheOp::Read:
      case CacheOp::Write:
        // Baseline accesses move the block over the H-tree: Table I split.
        return read_fraction;
      case CacheOp::Search:
        // Search = in-place cmp + a key write that crosses the H-tree;
        // attribute the write portion's split and none for the cmp.
        {
            EnergyPJ write = cacheOpEnergy(level, CacheOp::Write);
            EnergyPJ total = cacheOpEnergy(level, CacheOp::Search);
            return read_fraction * write / total;
        }
      default:
        // In-place ops only send the command over the address H-tree;
        // a small fixed share models command distribution.
        return 0.10;
    }
}

} // namespace ccache::energy
