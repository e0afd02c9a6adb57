#include "apps/gemm.hh"

#include <cstring>

#include "cc/bitserial.hh"
#include "cc/transpose.hh"
#include "common/bit_util.hh"
#include "common/logging.hh"
#include "common/rng.hh"

namespace ccache::apps {

namespace {

/** Cache level of the CC version. */
constexpr CacheLevel kCcLevel = CacheLevel::L3;

/** Simulated-memory layout. Packed (normal-form) storage: @{ */
constexpr Addr kABase = 0x0400'0000;    ///< int8 A, row-major m x k
constexpr Addr kBBase = 0x0410'0000;    ///< int8 B, row-major k x n
constexpr Addr kCBase = 0x0420'0000;    ///< int32 C, row-major m x n
constexpr Addr kB32Base = 0x0430'0000;  ///< int32 staging row
/** @} */

/** Transposed slice stacks (page-aligned; each stack spans
 *  laneBits * kSliceStride of address space). @{ */
constexpr Addr kBSlicesBase = 0x0500'0000;  ///< k stacks of B rows
constexpr Addr kABcastBase = 0x0700'0000;   ///< broadcast scalar stack
constexpr Addr kTmpBase = 0x0740'0000;      ///< cc_mul partial products
constexpr Addr kAccBase = 0x0780'0000;      ///< accumulator stack
/** @} */

/** Address of B row @p kk's slice stack. */
Addr
bStack(std::size_t kk)
{
    return kBSlicesBase + kk * QuantGemmConfig::kAccBits * cc::kSliceStride;
}

} // namespace

QuantGemm::QuantGemm(const QuantGemmConfig &config)
    : config_(config), a_(config.m * config.k), b_(config.k * config.n),
      expected_(config.m * config.n), computed_(config.m * config.n)
{
    CC_ASSERT(config.n >= 1 && config.n % (8 * kBlockSize) == 0,
              "columns must fill whole 64-byte slice blocks");
    CC_ASSERT(cc::sliceBytes(config.n) <= cc::kSliceStride,
              "column count exceeds one slice row");
    Rng rng(config.seed);
    for (auto &v : a_)
        v = static_cast<std::int8_t>(rng.below(256));
    for (auto &v : b_)
        v = static_cast<std::int8_t>(rng.below(256));

    // int8 x int8 inner products of depth k stay far below 2^31, so the
    // mod-2^32 bit-serial accumulation is exact int32 arithmetic.
    for (std::size_t i = 0; i < config.m; ++i) {
        for (std::size_t j = 0; j < config.n; ++j) {
            std::int32_t sum = 0;
            for (std::size_t kk = 0; kk < config.k; ++kk)
                sum += std::int32_t{a_[i * config.k + kk]} *
                    std::int32_t{b_[kk * config.n + j]};
            expected_[i * config.n + j] = sum;
        }
    }
}

std::uint64_t
QuantGemm::checksum() const
{
    std::uint64_t sum = 0;
    for (std::size_t idx = 0; idx < computed_.size(); ++idx)
        sum ^= static_cast<std::uint64_t>(
                   static_cast<std::uint32_t>(computed_[idx])) *
            (idx + 1);
    return sum;
}

AppRunResult
QuantGemm::runBaseline(sim::System &sys, Engine engine)
{
    auto &hier = sys.hierarchy();
    auto &em = sys.energy();
    sim::CoreCostModel cost;
    std::uint64_t extra_instrs = 0;

    std::size_t m = config_.m, k = config_.k, n = config_.n;

    sys.load(kABase, a_.data(), a_.size());
    sys.load(kBBase, b_.data(), b_.size());

    std::size_t vec = engine == Engine::Base32 ? 32 : 8;
    std::fill(computed_.begin(), computed_.end(), 0);

    // Row-of-A-stationary loop: A[i][kk] stays in a register while the
    // inner loop streams B row kk and accumulates the int32 output row.
    for (std::size_t i = 0; i < m; ++i) {
        Cycles lat = hier.loadBytes(0, kABase + i * k, nullptr, k);
        cost.addMemAccess(lat);
        for (std::size_t kk = 0; kk < k; ++kk) {
            std::int32_t av = a_[i * k + kk];
            for (std::size_t off = 0; off < n; off += vec) {
                lat = hier.loadBytes(
                    0, kBBase + kk * n + off, nullptr, vec);
                cost.addMemAccess(lat);
                // Widening multiply + accumulate per vec int8 lanes:
                // two ops per lane scalar, two per 8-lane group SIMD.
                std::size_t ops =
                    engine == Engine::Base32 ? 2 * (vec / 8) : 2 * vec;
                cost.addInstrs(ops);
                extra_instrs += ops;
            }
            for (std::size_t j = 0; j < n; ++j)
                computed_[i * n + j] += av * std::int32_t{b_[kk * n + j]};
        }
        Cycles slat =
            hier.storeBytes(0, kCBase + i * 4 * n,
                            computed_.data() + i * n, 4 * n);
        cost.addMemAccess(slat);
    }

    em.chargeInstructions(extra_instrs);
    if (engine == Engine::Base32)
        em.chargeVectorInstructions(0);

    CC_ASSERT(computed_ == expected_, "baseline GEMM result wrong");

    AppRunResult res;
    res.cycles = cost.cycles();
    res.instructions = cost.instructions();
    sys.advance(0, res.cycles);
    res.dynamic = em.dynamic();
    res.totals = sys.totals();
    res.checksum = checksum();
    return res;
}

AppRunResult
QuantGemm::runCc(sim::System &sys)
{
    auto &hier = sys.hierarchy();
    auto &em = sys.energy();
    sim::CoreCostModel cost;
    std::uint64_t extra_instrs = 0;
    Cycles cc_cycles = 0;

    std::size_t m = config_.m, k = config_.k, n = config_.n;
    constexpr std::size_t w = QuantGemmConfig::kAccBits;
    std::size_t sb = cc::sliceBytes(n);

    sys.load(kABase, a_.data(), a_.size());
    sys.load(kBBase, b_.data(), b_.size());

    sys.cc().mutableParams().forceLevel = kCcLevel;
    cc::TransposeManager trans(hier, &em, &sys.stats());
    std::fill(computed_.begin(), computed_.end(), 0);

    // Stage every B row into transposed form once: sign-extend the int8
    // row to packed int32 lanes on the core, then bit-transpose it into
    // its slice stack. The stacks stay cache-resident for all m rows of
    // A, which is where the transposition cost amortizes.
    std::vector<std::int32_t> row32(n);
    for (std::size_t kk = 0; kk < k; ++kk) {
        Cycles lat = hier.loadBytes(0, kBBase + kk * n, nullptr, n);
        cost.addMemAccess(lat);
        for (std::size_t j = 0; j < n; ++j)
            row32[j] = std::int32_t{b_[kk * n + j]};
        cost.addInstrs(n / 4);  // vectorized sign extension
        extra_instrs += n / 4;
        lat = hier.storeBytes(0, kB32Base, row32.data(), 4 * n);
        cost.addMemAccess(lat);
        cost.addMemAccess(
            trans.transpose(0, kB32Base, bStack(kk), n, w));
    }

    std::vector<cc::CcInstruction> instrs;
    auto flush = [&] {
        if (instrs.empty())
            return;
        Cycles stream_lat = 0;
        sys.cc().executeStream(0, instrs, &stream_lat);
        cc_cycles += stream_lat;
        instrs.clear();
    };

    std::vector<std::int32_t> out(n);
    for (std::size_t i = 0; i < m; ++i) {
        Cycles lat = hier.loadBytes(0, kABase + i * k, nullptr, k);
        cost.addMemAccess(lat);
        for (std::size_t kk = 0; kk < k; ++kk) {
            // The broadcast rewrites the scalar stack, so the stream
            // consuming the previous value must drain first.
            flush();
            std::uint32_t av = static_cast<std::uint32_t>(
                std::int32_t{a_[i * k + kk]});
            cost.addMemAccess(trans.broadcast(0, av, kABcastBase, n, w));
            if (kk == 0) {
                instrs.push_back(cc::CcInstruction::mul(
                    kABcastBase, bStack(kk), kAccBase, sb, w));
            } else {
                instrs.push_back(cc::CcInstruction::mul(
                    kABcastBase, bStack(kk), kTmpBase, sb, w));
                instrs.push_back(cc::CcInstruction::add(
                    kAccBase, kTmpBase, kAccBase, sb, w));
            }
            if (instrs.size() >= 8)
                flush();
        }
        flush();

        // Gather the accumulator back to packed form and emit row i.
        cost.addMemAccess(
            trans.untranspose(0, kAccBase, kCBase + i * 4 * n, n, w));
        Cycles l2 = hier.loadBytes(0, kCBase + i * 4 * n,
                                   out.data(), 4 * n);
        cost.addMemAccess(l2);
        std::memcpy(computed_.data() + i * n, out.data(), 4 * n);
    }

    em.chargeInstructions(extra_instrs);

    CC_ASSERT(computed_ == expected_, "CC GEMM result wrong");

    AppRunResult res;
    res.cycles = cost.cycles() + cc_cycles;
    res.instructions = cost.instructions() +
        sys.stats().value("cc.instructions");
    sys.advance(0, res.cycles);
    res.dynamic = em.dynamic();
    res.totals = sys.totals();
    res.checksum = checksum();
    return res;
}

AppRunResult
QuantGemm::run(sim::System &sys, Engine engine)
{
    return engine == Engine::Cc ? runCc(sys) : runBaseline(sys, engine);
}

} // namespace ccache::apps
