#include "sim/engines.hh"

#include <algorithm>
#include <cstring>

#include "common/bit_util.hh"
#include "common/logging.hh"

namespace ccache::sim {

BaselineEngine::BaselineEngine(cache::Hierarchy &hier,
                               energy::EnergyModel *energy,
                               StatRegistry *stats,
                               std::size_t vector_bytes)
    : hier_(hier), energy_(energy), stats_(stats),
      vectorBytes_(vector_bytes)
{
    CC_ASSERT(vector_bytes >= 8 && vector_bytes <= kBlockSize &&
                  isPowerOfTwo(vector_bytes),
              "vector width must be a power of two in [8, 64]");
}

void
BaselineEngine::load(CoreCostModel &cost, CoreId core, Addr addr,
                     std::uint8_t *out)
{
    Cycles lat = hier_.loadBytes(core, addr, out, vectorBytes_);
    cost.addMemAccess(lat);
    if (energy_) {
        if (vectorBytes_ > 8)
            energy_->chargeVectorInstructions(1);
        else
            energy_->chargeInstructions(1);
    }
}

void
BaselineEngine::store(CoreCostModel &cost, CoreId core, Addr addr,
                      const std::uint8_t *data)
{
    Cycles lat = hier_.storeBytes(core, addr, data, vectorBytes_);
    cost.addMemAccess(lat);
    if (energy_) {
        if (vectorBytes_ > 8)
            energy_->chargeVectorInstructions(1);
        else
            energy_->chargeInstructions(1);
    }
}

KernelResult
BaselineEngine::copy(CoreId core, Addr src, Addr dst, std::size_t n)
{
    CoreCostModel cost;
    std::vector<std::uint8_t> buf(vectorBytes_);
    for (std::size_t off = 0; off < n; off += vectorBytes_) {
        load(cost, core, src + off, buf.data());
        store(cost, core, dst + off, buf.data());
        cost.addInstrs(CoreCostModel::kLoopOverheadInstrs);
    }
    if (energy_)
        energy_->chargeInstructions(
            (n / vectorBytes_) * CoreCostModel::kLoopOverheadInstrs);

    KernelResult res;
    res.cycles = cost.cycles();
    res.instructions = cost.instructions() +
        (n / vectorBytes_) * CoreCostModel::kLoopOverheadInstrs;
    res.blockOps = divCeil(n, kBlockSize);
    return res;
}

KernelResult
BaselineEngine::compare(CoreId core, Addr a, Addr b, std::size_t n)
{
    CoreCostModel cost;
    std::vector<std::uint8_t> ba(vectorBytes_), bb(vectorBytes_);
    bool equal = true;
    std::uint64_t alu = 0;
    for (std::size_t off = 0; off < n; off += vectorBytes_) {
        load(cost, core, a + off, ba.data());
        load(cost, core, b + off, bb.data());
        cost.addInstrs(1 + CoreCostModel::kLoopOverheadInstrs);  // vector cmp
        ++alu;
        equal &= std::memcmp(ba.data(), bb.data(), vectorBytes_) == 0;
    }
    if (energy_) {
        energy_->chargeInstructions(alu * CoreCostModel::kLoopOverheadInstrs);
        if (vectorBytes_ > 8)
            energy_->chargeVectorInstructions(alu);
        else
            energy_->chargeInstructions(alu);
    }

    KernelResult res;
    res.cycles = cost.cycles();
    res.instructions = cost.instructions() +
        alu * CoreCostModel::kLoopOverheadInstrs;
    res.value = equal ? 1 : 0;
    res.blockOps = divCeil(n, kBlockSize);
    return res;
}

KernelResult
BaselineEngine::search(CoreId core, Addr data, Addr key, std::size_t n)
{
    CoreCostModel cost;
    std::vector<std::uint8_t> chunk(vectorBytes_), kchunk(vectorBytes_);
    std::uint64_t matches = 0;
    std::uint64_t alu = 0;
    for (std::size_t blk = 0; blk < divCeil(n, kBlockSize); ++blk) {
        bool match = true;
        for (std::size_t off = 0; off < kBlockSize; off += vectorBytes_) {
            load(cost, core, data + blk * kBlockSize + off, chunk.data());
            // The key stays hot in L1 after the first touch.
            load(cost, core, key + off, kchunk.data());
            cost.addInstrs(1 + CoreCostModel::kLoopOverheadInstrs);
            ++alu;
            match &= std::memcmp(chunk.data(), kchunk.data(),
                                 vectorBytes_) == 0;
        }
        matches += match ? 1 : 0;
    }
    if (energy_) {
        energy_->chargeInstructions(alu * CoreCostModel::kLoopOverheadInstrs);
        if (vectorBytes_ > 8)
            energy_->chargeVectorInstructions(alu);
        else
            energy_->chargeInstructions(alu);
    }

    KernelResult res;
    res.cycles = cost.cycles();
    res.instructions = cost.instructions() +
        alu * CoreCostModel::kLoopOverheadInstrs;
    res.value = matches;
    res.blockOps = divCeil(n, kBlockSize);
    return res;
}

KernelResult
BaselineEngine::logicalOr(CoreId core, Addr a, Addr b, Addr dst,
                          std::size_t n)
{
    return logicalOp(core, a, b, dst, n, /*is_and=*/false);
}

KernelResult
BaselineEngine::logicalAnd(CoreId core, Addr a, Addr b, Addr dst,
                           std::size_t n)
{
    return logicalOp(core, a, b, dst, n, /*is_and=*/true);
}

KernelResult
BaselineEngine::logicalOp(CoreId core, Addr a, Addr b, Addr dst,
                          std::size_t n, bool is_and)
{
    CoreCostModel cost;
    std::vector<std::uint8_t> ba(vectorBytes_), bb(vectorBytes_);
    std::uint64_t alu = 0;
    for (std::size_t off = 0; off < n; off += vectorBytes_) {
        load(cost, core, a + off, ba.data());
        load(cost, core, b + off, bb.data());
        for (std::size_t i = 0; i < vectorBytes_; ++i)
            ba[i] = is_and ? (ba[i] & bb[i]) : (ba[i] | bb[i]);
        store(cost, core, dst + off, ba.data());
        cost.addInstrs(1 + CoreCostModel::kLoopOverheadInstrs);
        ++alu;
    }
    if (energy_) {
        energy_->chargeInstructions(alu * CoreCostModel::kLoopOverheadInstrs);
        if (vectorBytes_ > 8)
            energy_->chargeVectorInstructions(alu);
        else
            energy_->chargeInstructions(alu);
    }

    KernelResult res;
    res.cycles = cost.cycles();
    res.instructions = cost.instructions() +
        alu * CoreCostModel::kLoopOverheadInstrs;
    res.blockOps = divCeil(n, kBlockSize);
    return res;
}

KernelResult
BaselineEngine::run(BulkKernel k, CoreId core, Addr a, Addr b, Addr dst,
                    std::size_t n)
{
    switch (k) {
      case BulkKernel::Copy: return copy(core, a, dst, n);
      case BulkKernel::Compare: return compare(core, a, b, n);
      case BulkKernel::Search: return search(core, a, b, n);
      case BulkKernel::LogicalOr: return logicalOr(core, a, b, dst, n);
    }
    CC_PANIC("bad kernel");
}

CcEngine::CcEngine(cache::Hierarchy &hier, cc::CcController &ctrl,
                   energy::EnergyModel *energy, StatRegistry *stats)
    : hier_(hier), ctrl_(ctrl), energy_(energy), stats_(stats)
{
}

KernelResult
CcEngine::copy(CoreId core, Addr src, Addr dst, std::size_t n)
{
    std::vector<cc::CcInstruction> instrs;
    for (std::size_t off = 0; off < n; off += kChunk) {
        std::size_t len = std::min(kChunk, n - off);
        instrs.push_back(
            cc::CcInstruction::copy(src + off, dst + off, len));
    }
    KernelResult res;
    auto rs = ctrl_.executeStream(core, instrs, &res.cycles);
    res.instructions = instrs.size();
    for (const auto &r : rs)
        res.blockOps += r.blockOps;
    return res;
}

KernelResult
CcEngine::buz(CoreId core, Addr dst, std::size_t n)
{
    std::vector<cc::CcInstruction> instrs;
    for (std::size_t off = 0; off < n; off += kChunk)
        instrs.push_back(
            cc::CcInstruction::buz(dst + off, std::min(kChunk, n - off)));
    KernelResult res;
    auto rs = ctrl_.executeStream(core, instrs, &res.cycles);
    res.instructions = instrs.size();
    for (const auto &r : rs)
        res.blockOps += r.blockOps;
    return res;
}

KernelResult
CcEngine::compare(CoreId core, Addr a, Addr b, std::size_t n)
{
    std::vector<cc::CcInstruction> instrs;
    for (std::size_t off = 0; off < n; off += cc::kMaxCmpBytes) {
        std::size_t len = std::min(cc::kMaxCmpBytes, n - off);
        instrs.push_back(cc::CcInstruction::cmp(a + off, b + off, len));
    }
    KernelResult res;
    auto rs = ctrl_.executeStream(core, instrs, &res.cycles);
    res.instructions = instrs.size();
    bool equal = true;
    for (std::size_t i = 0; i < rs.size(); ++i) {
        res.blockOps += rs[i].blockOps;
        std::size_t len = instrs[i].size;
        std::uint64_t full = len / 8 == 64
            ? ~std::uint64_t{0}
            : (std::uint64_t{1} << (len / 8)) - 1;
        equal &= (rs[i].result & full) == full;
    }
    res.value = equal ? 1 : 0;
    return res;
}

KernelResult
CcEngine::search(CoreId core, Addr data, Addr key, std::size_t n)
{
    std::vector<cc::CcInstruction> instrs;
    for (std::size_t off = 0; off < n; off += cc::kMaxCmpBytes) {
        std::size_t len = std::min(cc::kMaxCmpBytes, n - off);
        instrs.push_back(cc::CcInstruction::search(data + off, key, len));
    }
    KernelResult res;
    auto rs = ctrl_.executeStream(core, instrs, &res.cycles);
    std::uint64_t matches = 0;
    for (std::size_t i = 0; i < rs.size(); ++i) {
        res.blockOps += rs[i].blockOps;
        // Post-mask instruction (Section VI-B): per-block match when all
        // eight word bits are set.
        for (std::size_t blk = 0; blk < instrs[i].size / kBlockSize;
             ++blk) {
            std::uint64_t bits = (rs[i].result >> (blk * 8)) & 0xff;
            matches += bits == 0xff ? 1 : 0;
        }
        res.instructions += 2;  // the search plus its mask instruction
        if (energy_)
            energy_->chargeInstructions(1);
    }
    res.value = matches;
    return res;
}

KernelResult
CcEngine::logicalOr(CoreId core, Addr a, Addr b, Addr dst, std::size_t n)
{
    std::vector<cc::CcInstruction> instrs;
    for (std::size_t off = 0; off < n; off += kChunk) {
        std::size_t len = std::min(kChunk, n - off);
        instrs.push_back(cc::CcInstruction::logicalOr(a + off, b + off,
                                                      dst + off, len));
    }
    KernelResult res;
    auto rs = ctrl_.executeStream(core, instrs, &res.cycles);
    res.instructions = instrs.size();
    for (const auto &r : rs)
        res.blockOps += r.blockOps;
    return res;
}

KernelResult
CcEngine::run(BulkKernel k, CoreId core, Addr a, Addr b, Addr dst,
              std::size_t n)
{
    switch (k) {
      case BulkKernel::Copy: return copy(core, a, dst, n);
      case BulkKernel::Compare: return compare(core, a, b, n);
      case BulkKernel::Search: return search(core, a, b, n);
      case BulkKernel::LogicalOr: return logicalOr(core, a, b, dst, n);
    }
    CC_PANIC("bad kernel");
}

} // namespace ccache::sim
