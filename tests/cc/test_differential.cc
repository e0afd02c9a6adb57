/**
 * @file
 * Differential golden-model tests: every CC ISA op (and / or / xor /
 * nor / not / copy / buz / cmp / search / clmul) is run through the
 * circuit-level bit-line sram::SubArray path AND through the CC
 * controller over the real hierarchy, and compared bit-exactly against
 * an independent plain scalar reference implementation over randomized
 * operands with fixed seeds. The ECC-active (fault ladder enabled at
 * zero rates) and near-place-forced variants must match the reference
 * and the in-place results bit-for-bit.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cache/hierarchy.hh"
#include "cc/cc_controller.hh"
#include "cc/ecc.hh"
#include "common/rng.hh"
#include "sram/subarray.hh"

namespace ccache::cc {
namespace {

// ---------------------------------------------------------------------
// The golden model: deliberately naive byte/bit loops, sharing no code
// with BlockCompute or the sub-array circuit semantics.
// ---------------------------------------------------------------------

using Bytes = std::vector<std::uint8_t>;

Bytes
refAnd(const Bytes &a, const Bytes &b)
{
    Bytes out(a.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        out[i] = a[i] & b[i];
    return out;
}

Bytes
refOr(const Bytes &a, const Bytes &b)
{
    Bytes out(a.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        out[i] = a[i] | b[i];
    return out;
}

Bytes
refXor(const Bytes &a, const Bytes &b)
{
    Bytes out(a.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        out[i] = a[i] ^ b[i];
    return out;
}

Bytes
refNor(const Bytes &a, const Bytes &b)
{
    Bytes out(a.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        out[i] = static_cast<std::uint8_t>(~(a[i] | b[i]));
    return out;
}

Bytes
refNot(const Bytes &a)
{
    Bytes out(a.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        out[i] = static_cast<std::uint8_t>(~a[i]);
    return out;
}

/** Bit i of the result: 64-bit words i of a and b are equal. */
std::uint64_t
refWordEqualMask(const Bytes &a, const Bytes &b)
{
    std::uint64_t mask = 0;
    for (std::size_t w = 0; w * 8 < a.size(); ++w) {
        bool eq = true;
        for (std::size_t byte = 0; byte < 8; ++byte)
            eq &= a[w * 8 + byte] == b[w * 8 + byte];
        if (eq)
            mask |= std::uint64_t{1} << w;
    }
    return mask;
}

/** Parity of popcount(a & b) per word of @p word_bits. */
std::vector<bool>
refClmulParities(const Bytes &a, const Bytes &b, std::size_t word_bits)
{
    std::vector<bool> out;
    for (std::size_t w = 0; w * word_bits < a.size() * 8; ++w) {
        unsigned ones = 0;
        for (std::size_t bit = 0; bit < word_bits; ++bit) {
            std::size_t idx = w * word_bits + bit;
            bool ba = (a[idx / 8] >> (idx % 8)) & 1;
            bool bb = (b[idx / 8] >> (idx % 8)) & 1;
            ones += (ba && bb) ? 1 : 0;
        }
        out.push_back((ones & 1) != 0);
    }
    return out;
}

Bytes
randomBytes(Rng &rng, std::size_t n)
{
    Bytes out(n);
    for (auto &b : out)
        b = static_cast<std::uint8_t>(rng.below(256));
    return out;
}

Block
toBlock(const Bytes &bytes)
{
    Block b{};
    std::copy_n(bytes.begin(), std::min(bytes.size(), kBlockSize),
                b.begin());
    return b;
}

Bytes
fromBlock(const Block &b)
{
    return Bytes(b.begin(), b.end());
}

// ---------------------------------------------------------------------
// Layer 1: the bit-line SubArray circuit path vs the golden model,
// randomized over many fixed seeds.
// ---------------------------------------------------------------------

class SubArrayDifferential : public ::testing::TestWithParam<std::uint64_t>
{
  protected:
    SubArrayDifferential() : sa(params()) {}

    static sram::SubArrayParams
    params()
    {
        sram::SubArrayParams p;
        p.rows = 16;
        p.cols = 1024;  // two 64-byte block partitions
        return p;
    }

    sram::SubArray sa;
};

TEST_P(SubArrayDifferential, AllOpsMatchGoldenModel)
{
    Rng rng(GetParam());
    for (int trial = 0; trial < 8; ++trial) {
        Bytes a = randomBytes(rng, kBlockSize);
        Bytes b = randomBytes(rng, kBlockSize);
        sa.write({0, 0}, toBlock(a));
        sa.write({0, 1}, toBlock(b));

        sa.opAnd({0, 0}, {0, 1}, {0, 2});
        EXPECT_EQ(fromBlock(sa.read({0, 2})), refAnd(a, b));
        sa.opOr({0, 0}, {0, 1}, {0, 3});
        EXPECT_EQ(fromBlock(sa.read({0, 3})), refOr(a, b));
        sa.opXor({0, 0}, {0, 1}, {0, 4});
        EXPECT_EQ(fromBlock(sa.read({0, 4})), refXor(a, b));
        sa.opNor({0, 0}, {0, 1}, {0, 5});
        EXPECT_EQ(fromBlock(sa.read({0, 5})), refNor(a, b));
        sa.opNot({0, 0}, {0, 6});
        EXPECT_EQ(fromBlock(sa.read({0, 6})), refNot(a));
        sa.opCopy({0, 0}, {0, 7});
        EXPECT_EQ(fromBlock(sa.read({0, 7})), a);
        sa.opBuz({0, 7});
        EXPECT_EQ(fromBlock(sa.read({0, 7})), Bytes(kBlockSize, 0));

        // Sources must be intact after every op (in-place ops sense,
        // they do not overwrite operands).
        EXPECT_EQ(fromBlock(sa.read({0, 0})), a);
        EXPECT_EQ(fromBlock(sa.read({0, 1})), b);
    }
}

TEST_P(SubArrayDifferential, CmpAndSearchMatchGoldenModel)
{
    Rng rng(GetParam() ^ 0xc3a5c3a5c3a5c3a5ULL);
    for (int trial = 0; trial < 8; ++trial) {
        Bytes a = randomBytes(rng, kBlockSize);
        Bytes b = a;
        // Perturb a random subset of words.
        unsigned flips = static_cast<unsigned>(rng.below(8));
        for (unsigned f = 0; f < flips; ++f) {
            std::size_t w = rng.below(kWordsPerBlock);
            b[w * 8 + rng.below(8)] ^= 1u << rng.below(8);
        }
        sa.write({0, 0}, toBlock(a));
        sa.write({0, 1}, toBlock(b));

        std::uint64_t expect = refWordEqualMask(a, b) &
            ((std::uint64_t{1} << kWordsPerBlock) - 1);
        auto cmp = sa.opCmp({0, 0}, {0, 1});
        EXPECT_EQ(cmp.wordEqualMask, expect);
        EXPECT_EQ(cmp.allEqual, a == b);

        // Search has identical compare semantics (key vs data block).
        auto search = sa.opSearch({0, 1}, {0, 0});
        EXPECT_EQ(search.wordEqualMask, expect);
        EXPECT_EQ(search.allEqual, a == b);
    }
}

TEST_P(SubArrayDifferential, ClmulMatchesGoldenModelAtAllWidths)
{
    Rng rng(GetParam() ^ 0x9e3779b97f4a7c15ULL);
    for (std::size_t word_bits : {64u, 128u, 256u}) {
        Bytes a = randomBytes(rng, kBlockSize);
        Bytes b = randomBytes(rng, kBlockSize);
        sa.write({0, 0}, toBlock(a));
        sa.write({0, 1}, toBlock(b));
        auto result = sa.opClmul({0, 0}, {0, 1}, word_bits);
        EXPECT_EQ(result.parities, refClmulParities(a, b, word_bits))
            << "width " << word_bits;
    }
}

TEST_P(SubArrayDifferential, EccSurvivesInPlaceOps)
{
    // The Section IV-I check: SECDED is linear, so the dst ECC of an
    // xor is the xor of the source ECCs, and a decode of the computed
    // result against that code reports no error.
    Rng rng(GetParam() ^ 0x5eedULL);
    Bytes a = randomBytes(rng, kBlockSize);
    Bytes b = randomBytes(rng, kBlockSize);
    BlockEcc ecc_a = encodeBlock(toBlock(a));
    BlockEcc ecc_b = encodeBlock(toBlock(b));

    sa.write({0, 0}, toBlock(a));
    sa.write({0, 1}, toBlock(b));
    sa.opXor({0, 0}, {0, 1}, {0, 2});
    Block result = sa.read({0, 2});

    BlockEcc ecc_xor;
    for (std::size_t w = 0; w < kWordsPerBlock; ++w)
        ecc_xor[w] = static_cast<std::uint8_t>(ecc_a[w] ^ ecc_b[w]);
    EXPECT_EQ(encodeBlock(result), ecc_xor);
    EXPECT_EQ(checkBlock(result, ecc_xor), EccStatus::Ok);
    EXPECT_EQ(fromBlock(result), refXor(a, b));
}

INSTANTIATE_TEST_SUITE_P(FixedSeeds, SubArrayDifferential,
                         ::testing::Values(1u, 2u, 3u, 17u, 123u,
                                           0xdeadbeefu));

// ---------------------------------------------------------------------
// Layer 2: the CC controller over the real hierarchy, in three
// variants — in-place (default), near-place-forced, and ECC-active
// (fault ladder enabled at zero injection rates). All three must match
// the golden model and each other bit-for-bit.
// ---------------------------------------------------------------------

enum class Variant { InPlace, NearPlace, EccActive };

CcControllerParams
variantParams(Variant v)
{
    CcControllerParams p;
    switch (v) {
      case Variant::InPlace:
        p.verifyCircuit = true;  // cross-check the circuit model too
        break;
      case Variant::NearPlace:
        p.forceNearPlace = true;
        break;
      case Variant::EccActive:
        // Fault ladder armed, zero rates: every sensed operand goes
        // through the injector and the ECC check unit, and the results
        // must stay bit-identical to a fault-free run.
        p.faults.enabled = true;
        p.faults.seed = 77;
        break;
    }
    return p;
}

class ControllerDifferential : public ::testing::TestWithParam<Variant>
{
  protected:
    ControllerDifferential()
        : hier(cache::HierarchyParams{}, &em, &stats),
          ctrl(hier, &em, &stats, variantParams(GetParam()))
    {
    }

    Bytes
    load(Addr addr, const Bytes &data)
    {
        hier.memory().writeBytes(addr, data.data(), data.size());
        return data;
    }

    Bytes
    dump(Addr addr, std::size_t len)
    {
        Bytes out(len);
        for (std::size_t off = 0; off < len; off += kBlockSize) {
            Block b = hier.debugRead(addr + off);
            std::size_t n = std::min(kBlockSize, len - off);
            std::copy_n(b.begin(), n, out.begin() + off);
        }
        return out;
    }

    energy::EnergyModel em;
    StatRegistry stats;
    cache::Hierarchy hier;
    CcController ctrl;
};

TEST_P(ControllerDifferential, LogicalOpsMatchGoldenModel)
{
    Rng rng(2024);
    std::size_t iteration = 0;
    for (std::size_t size : {64u, 512u, 4096u}) {
        // Fresh addresses per iteration: memory writes do not invalidate
        // lines already staged into the hierarchy by earlier trials.
        Addr base = 0x10000 + 0x100000 * iteration++;
        Bytes a = load(base, randomBytes(rng, size));
        Bytes b = load(base + 0x20000, randomBytes(rng, size));

        auto run = [&](CcInstruction instr, Addr dst, const Bytes &want) {
            auto res = ctrl.execute(0, instr);
            EXPECT_FALSE(res.riscFallback);
            if (GetParam() == Variant::NearPlace) {
                EXPECT_EQ(res.inPlaceOps, 0u);
                EXPECT_GT(res.nearPlaceOps, 0u);
            }
            EXPECT_EQ(dump(dst, want.size()), want) << instr.toString();
        };

        run(CcInstruction::logicalAnd(base, base + 0x20000,
                                      base + 0x30000, size),
            base + 0x30000, refAnd(a, b));
        run(CcInstruction::logicalOr(base, base + 0x20000,
                                     base + 0x38000, size),
            base + 0x38000, refOr(a, b));
        run(CcInstruction::logicalXor(base, base + 0x20000,
                                      base + 0x40000, size),
            base + 0x40000, refXor(a, b));
        run(CcInstruction::logicalNot(base, base + 0x48000, size),
            base + 0x48000, refNot(a));
        run(CcInstruction::copy(base, base + 0x50000, size),
            base + 0x50000, a);

        auto res = ctrl.execute(0, CcInstruction::buz(base + 0x50000,
                                                      size));
        EXPECT_FALSE(res.riscFallback);
        EXPECT_EQ(dump(base + 0x50000, size), Bytes(size, 0));
    }
}

TEST_P(ControllerDifferential, CmpMatchesGoldenModel)
{
    Rng rng(4096);
    for (int trial = 0; trial < 4; ++trial) {
        const std::size_t size = 512;  // kMaxCmpBytes
        Bytes a = randomBytes(rng, size);
        Bytes b = a;
        unsigned flips = static_cast<unsigned>(rng.below(10));
        for (unsigned f = 0; f < flips; ++f)
            b[rng.below(size)] ^= 1u << rng.below(8);
        // Per-trial addresses: staged lines from earlier trials would
        // otherwise shadow the fresh memory contents.
        Addr base = 0x600000 + 0x100000 * trial;
        load(base, a);
        load(base + 0x40000, b);

        auto res = ctrl.execute(0, CcInstruction::cmp(base,
                                                      base + 0x40000,
                                                      size));
        EXPECT_EQ(res.result, refWordEqualMask(a, b)) << "trial " << trial;
    }
}

TEST_P(ControllerDifferential, SearchMatchesGoldenModel)
{
    Rng rng(8192);
    const std::size_t size = 512;  // 8 blocks
    Bytes data = randomBytes(rng, size);
    // Plant the key at blocks 2 and 6.
    Bytes key(data.begin() + 2 * kBlockSize,
              data.begin() + 3 * kBlockSize);
    std::copy(key.begin(), key.end(), data.begin() + 6 * kBlockSize);
    load(0x80000, data);
    load(0x90000, key);

    auto res = ctrl.execute(0, CcInstruction::search(0x80000, 0x90000,
                                                     size));
    // Word-granular reference: each data block vs the key.
    std::uint64_t expect = 0;
    for (std::size_t blk = 0; blk * kBlockSize < size; ++blk) {
        Bytes d(data.begin() + blk * kBlockSize,
                data.begin() + (blk + 1) * kBlockSize);
        expect |= refWordEqualMask(d, key) << (blk * kWordsPerBlock);
    }
    EXPECT_EQ(res.result, expect);
}

TEST_P(ControllerDifferential, ClmulMatchesGoldenModel)
{
    Rng rng(16384);
    const std::size_t size = 1024;
    Bytes a = load(0xa0000, randomBytes(rng, size));
    Bytes b = load(0xb0000, randomBytes(rng, size));

    std::size_t iteration = 0;
    for (std::size_t word_bits : {64u, 128u, 256u}) {
        Addr dst = 0xc0000 + 0x100000 * iteration++;
        auto res = ctrl.execute(
            0, CcInstruction::clmul(0xa0000, 0xb0000, dst, size,
                                    word_bits));
        EXPECT_FALSE(res.riscFallback);

        // Golden model: the plain (non-replicated) clmul writes one
        // dest block per source block, parities packed into the low
        // bits of the block's first 64-bit word, the rest zeroed.
        Bytes want(size, 0);
        for (std::size_t blk = 0; blk * kBlockSize < size; ++blk) {
            Bytes ba(a.begin() + blk * kBlockSize,
                     a.begin() + (blk + 1) * kBlockSize);
            Bytes bb(b.begin() + blk * kBlockSize,
                     b.begin() + (blk + 1) * kBlockSize);
            auto p = refClmulParities(ba, bb, word_bits);
            for (std::size_t i = 0; i < p.size(); ++i)
                if (p[i])
                    want[blk * kBlockSize + i / 8] |=
                        static_cast<std::uint8_t>(1u << (i % 8));
        }

        EXPECT_EQ(dump(dst, size), want) << "width " << word_bits;
    }
}

INSTANTIATE_TEST_SUITE_P(Variants, ControllerDifferential,
                         ::testing::Values(Variant::InPlace,
                                           Variant::NearPlace,
                                           Variant::EccActive),
                         [](const auto &info) {
                             switch (info.param) {
                               case Variant::InPlace: return "InPlace";
                               case Variant::NearPlace: return "NearPlace";
                               case Variant::EccActive: return "EccActive";
                             }
                             return "Unknown";
                         });

// The check unit runs only with the fault ladder armed: EccActive.
TEST(ControllerDifferentialEccActive, ReportsNoFaultActivity)
{
    energy::EnergyModel em;
    StatRegistry stats;
    cache::Hierarchy hier(cache::HierarchyParams{}, &em, &stats);
    CcController ctrl(hier, &em, &stats, variantParams(Variant::EccActive));
    Rng rng(555);
    Bytes a = randomBytes(rng, 2048);
    Bytes b = randomBytes(rng, 2048);
    hier.memory().writeBytes(0xd0000, a.data(), a.size());
    hier.memory().writeBytes(0xe0000, b.data(), b.size());
    auto res = ctrl.execute(
        0, CcInstruction::logicalXor(0xd0000, 0xe0000, 0xf0000, 2048));
    // Zero rates: the check unit ran but found nothing to correct.
    EXPECT_EQ(res.faultRetries, 0u);
    EXPECT_EQ(res.faultDegradedOps, 0u);
    EXPECT_EQ(res.faultRiscRecoveries, 0u);
}

// The three variants must agree with each other, not only with the
// reference: run the same instruction stream under each and compare
// the resulting memory images byte-for-byte.
TEST(ControllerCrossVariant, MemoryImagesBitIdentical)
{
    auto run_variant = [](Variant v) {
        energy::EnergyModel em;
        StatRegistry stats;
        cache::Hierarchy hier(cache::HierarchyParams{}, &em, &stats);
        CcController ctrl(hier, &em, &stats,
                          [&] {
                              CcControllerParams p;
                              if (v == Variant::NearPlace)
                                  p.forceNearPlace = true;
                              if (v == Variant::EccActive) {
                                  p.faults.enabled = true;
                                  p.faults.seed = 99;
                              }
                              return p;
                          }());

        Rng rng(31337);
        Bytes a(4096), b(4096);
        for (auto &x : a)
            x = static_cast<std::uint8_t>(rng.below(256));
        for (auto &x : b)
            x = static_cast<std::uint8_t>(rng.below(256));
        hier.memory().writeBytes(0x10000, a.data(), a.size());
        hier.memory().writeBytes(0x20000, b.data(), b.size());

        ctrl.execute(0, CcInstruction::logicalAnd(0x10000, 0x20000,
                                                  0x30000, 4096));
        ctrl.execute(0, CcInstruction::logicalXor(0x30000, 0x20000,
                                                  0x40000, 4096));
        ctrl.execute(0, CcInstruction::copy(0x40000, 0x50000, 4096));
        ctrl.execute(0, CcInstruction::logicalNot(0x50000, 0x60000,
                                                  4096));

        Bytes image;
        for (Addr base : {0x30000u, 0x40000u, 0x50000u, 0x60000u})
            for (std::size_t off = 0; off < 4096; off += kBlockSize) {
                Block blk = hier.debugRead(base + off);
                image.insert(image.end(), blk.begin(), blk.end());
            }
        return image;
    };

    Bytes in_place = run_variant(Variant::InPlace);
    EXPECT_EQ(in_place, run_variant(Variant::NearPlace));
    EXPECT_EQ(in_place, run_variant(Variant::EccActive));
}

} // namespace
} // namespace ccache::cc
