#include "sram/subarray_params.hh"

#include <cmath>

#include "common/bit_util.hh"
#include "common/logging.hh"

namespace ccache::sram {

const char *
toString(BitlineOp op)
{
    switch (op) {
      case BitlineOp::Read: return "read";
      case BitlineOp::Write: return "write";
      case BitlineOp::And: return "and";
      case BitlineOp::Nor: return "nor";
      case BitlineOp::Or: return "or";
      case BitlineOp::Xor: return "xor";
      case BitlineOp::Not: return "not";
      case BitlineOp::Copy: return "copy";
      case BitlineOp::Buz: return "buz";
      case BitlineOp::Cmp: return "cmp";
      case BitlineOp::Search: return "search";
      case BitlineOp::Clmul: return "clmul";
      case BitlineOp::AddStep: return "add_step";
      case BitlineOp::SubStep: return "sub_step";
      case BitlineOp::CmpStep: return "cmp_step";
    }
    return "?";
}

Cycles
SubArrayParams::opDelay(BitlineOp op) const
{
    double factor;
    switch (op) {
      case BitlineOp::Read:
      case BitlineOp::Write:
        factor = 1.0;
        break;
      case BitlineOp::And:
      case BitlineOp::Nor:
      case BitlineOp::Or:
      case BitlineOp::Xor:
      case BitlineOp::AddStep:
        factor = logicDelayFactor;
        break;
      case BitlineOp::SubStep:
      case BitlineOp::CmpStep:
        // One dual-row activation plus the extra single-row sense that
        // recovers an individual operand for the borrow / lt-gt terms.
        factor = logicDelayFactor + 1.0;
        break;
      default:
        factor = otherDelayFactor;
        break;
    }
    return static_cast<Cycles>(
        std::ceil(static_cast<double>(accessDelay) * factor));
}

EnergyPJ
SubArrayParams::opEnergy(BitlineOp op) const
{
    switch (op) {
      case BitlineOp::Read:
      case BitlineOp::Write:
        return accessEnergy;
      case BitlineOp::Cmp:
      case BitlineOp::Search:
      case BitlineOp::Clmul:
        return accessEnergy * cmpEnergyFactor;
      case BitlineOp::Copy:
      case BitlineOp::Buz:
      case BitlineOp::Not:
        return accessEnergy * copyEnergyFactor;
      case BitlineOp::And:
      case BitlineOp::Nor:
      case BitlineOp::Or:
      case BitlineOp::Xor:
      case BitlineOp::AddStep:
        return accessEnergy * logicEnergyFactor;
      case BitlineOp::SubStep:
      case BitlineOp::CmpStep:
        // Logic-class activation plus one extra single-row sense.
        return accessEnergy * (logicEnergyFactor + 1.0);
    }
    return accessEnergy;
}

void
SubArrayParams::validate() const
{
    if (rows == 0 || cols == 0)
        CC_FATAL("sub-array must have nonzero dimensions");
    if (!isPowerOfTwo(rows) || !isPowerOfTwo(cols))
        CC_FATAL("sub-array dimensions must be powers of two: ",
                 rows, "x", cols);
    if (cols % (8 * kBlockSize) != 0)
        CC_FATAL("sub-array row width ", cols,
                 " must hold whole 64-byte blocks");
    if (wordlineUnderdrive <= 0.0 || wordlineUnderdrive > 1.0)
        CC_FATAL("word-line underdrive must be in (0, 1]: ",
                 wordlineUnderdrive);
    if (accessDelay == 0)
        CC_FATAL("sub-array access delay must be nonzero");
}

} // namespace ccache::sram
