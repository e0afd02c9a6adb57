#include "cc/near_place_unit.hh"

#include <bit>

#include "common/logging.hh"

namespace ccache::cc {

Block
BlockCompute::apply(CcOpcode op, const Block &a, const Block &b,
                    std::size_t clmul_word_bits)
{
    Block out{};
    switch (op) {
      case CcOpcode::Copy:
        return a;
      case CcOpcode::Buz:
        return out;
      case CcOpcode::Not:
        for (std::size_t w = 0; w < kWordsPerBlock; ++w)
            setBlockWord(out, w, ~blockWord(a, w));
        return out;
      case CcOpcode::And:
        for (std::size_t w = 0; w < kWordsPerBlock; ++w)
            setBlockWord(out, w, blockWord(a, w) & blockWord(b, w));
        return out;
      case CcOpcode::Or:
        for (std::size_t w = 0; w < kWordsPerBlock; ++w)
            setBlockWord(out, w, blockWord(a, w) | blockWord(b, w));
        return out;
      case CcOpcode::Xor:
        for (std::size_t w = 0; w < kWordsPerBlock; ++w)
            setBlockWord(out, w, blockWord(a, w) ^ blockWord(b, w));
        return out;
      case CcOpcode::Clmul:
        return clmulPack(a, b, clmul_word_bits);
      case CcOpcode::Cmp:
      case CcOpcode::Search:
        CC_PANIC("cmp/search produce a mask, not a block");
      case CcOpcode::Add:
      case CcOpcode::Sub:
      case CcOpcode::Mul:
      case CcOpcode::Lt:
      case CcOpcode::Gt:
      case CcOpcode::Eq:
        CC_PANIC("bit-serial ops act on slice stacks, not single blocks "
                 "(see BitSerialCompute)");
    }
    return out;
}

std::uint64_t
BlockCompute::wordEqualMask(const Block &a, const Block &b)
{
    std::uint64_t mask = 0;
    for (std::size_t w = 0; w < kWordsPerBlock; ++w) {
        if (blockWord(a, w) == blockWord(b, w))
            mask |= std::uint64_t{1} << w;
    }
    return mask;
}

Block
BlockCompute::clmulPack(const Block &a, const Block &b,
                        std::size_t word_bits)
{
    CC_ASSERT(word_bits == 64 || word_bits == 128 || word_bits == 256,
              "bad clmul width ", word_bits);
    Block out{};
    std::size_t words64_per = word_bits / 64;
    std::size_t result_bits = (8 * kBlockSize) / word_bits;
    std::uint64_t packed = 0;
    for (std::size_t i = 0; i < result_bits; ++i) {
        unsigned ones = 0;
        for (std::size_t j = 0; j < words64_per; ++j) {
            std::size_t w = i * words64_per + j;
            ones += std::popcount(blockWord(a, w) & blockWord(b, w));
        }
        packed |= static_cast<std::uint64_t>(ones & 1) << i;
    }
    setBlockWord(out, 0, packed);
    return out;
}

NearPlaceUnit::NearPlaceUnit(energy::EnergyModel *energy,
                             StatRegistry *stats)
    : energy_(energy), stats_(stats)
{
    if (stats_)
        opsStat_ = &stats_->counter("cc.near_place_ops");
}

NearPlaceResult
NearPlaceUnit::execute(CcOpcode op, CacheLevel level, const Block &a,
                       const Block &b, std::size_t clmul_word_bits)
{
    ++ops_;
    if (opsStat_)
        opsStat_->inc();

    NearPlaceResult res;
    res.latency = nearPlaceLatency(level);

    unsigned reads = numAddrOperands(op) - (isCcR(op) ? 0u : 1u);
    if (op == CcOpcode::Buz)
        reads = 0;

    if (energy_) {
        // Operands cross the H-tree into the controller registers: full
        // baseline read cost per source operand.
        for (unsigned r = 0; r < reads; ++r)
            energy_->chargeCacheOp(level, energy::CacheOp::Read);
        energy_->chargeNearPlaceLogic(level, 1);
        // RW results are written back over the H-tree.
        if (!isCcR(op))
            energy_->chargeCacheOp(level, energy::CacheOp::Write);
    }

    if (isCcR(op)) {
        res.wordEqualMask = BlockCompute::wordEqualMask(a, b);
    } else {
        res.result = BlockCompute::apply(op, a, b, clmul_word_bits);
    }
    return res;
}

} // namespace ccache::cc
