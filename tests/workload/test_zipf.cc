/**
 * @file
 * Tests for the alias-table Zipf sampler: pmf correctness, empirical
 * frequency agreement, determinism of the draw stream, the exact
 * two-draw Rng budget the traffic generator relies on, a
 * multi-million-rank build smoke (the fleet bench key space), and the
 * exact draw streams of the shapes the benches use.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "tests/digest.hh"
#include "workload/zipf.hh"

namespace ccache::workload {
namespace {

TEST(ZipfSampler, PmfSumsToOneAndIsMonotone)
{
    ZipfSampler z(1000, 0.99);
    double sum = 0.0;
    for (std::size_t r = 0; r < z.size(); ++r) {
        sum += z.pmf(r);
        if (r > 0) {
            EXPECT_LE(z.pmf(r), z.pmf(r - 1));
        }
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
    // Zipf shape: pmf(r) / pmf(2r+1) == ((2r+2)/(r+1))^s == 2^s.
    EXPECT_NEAR(z.pmf(0) / z.pmf(1), std::pow(2.0, 0.99), 1e-9);
}

TEST(ZipfSampler, UniformWhenExponentZero)
{
    ZipfSampler z(64, 0.0);
    for (std::size_t r = 0; r < z.size(); ++r)
        EXPECT_NEAR(z.pmf(r), 1.0 / 64.0, 1e-12);
}

TEST(ZipfSampler, EmpiricalFrequenciesMatchPmf)
{
    constexpr std::size_t kRanks = 50;
    constexpr std::size_t kDraws = 200000;
    ZipfSampler z(kRanks, 1.0);
    Rng rng(0xfeed);
    std::vector<std::size_t> counts(kRanks, 0);
    for (std::size_t i = 0; i < kDraws; ++i) {
        std::size_t r = z.sample(rng);
        ASSERT_LT(r, kRanks);
        ++counts[r];
    }
    // The alias method samples the pmf exactly; only sampling noise
    // separates empirical frequency from pmf. 3% absolute slack on the
    // head, looser on the tail where counts are small.
    for (std::size_t r = 0; r < 8; ++r) {
        double freq = static_cast<double>(counts[r]) / kDraws;
        EXPECT_NEAR(freq, z.pmf(r), 0.03) << "rank " << r;
    }
    EXPECT_GT(counts[0], counts[10]);
}

TEST(ZipfSampler, DeterministicStream)
{
    ZipfSampler z(4096, 0.99);
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(z.sample(a), z.sample(b));
}

TEST(ZipfSampler, DrawConsumesExactlyTwoRngValues)
{
    // traffic_gen's §8 stream contract counts on one below() + one
    // uniform() per key draw — two next() calls, no more, no fewer.
    ZipfSampler z(128, 0.99);
    Rng sampled(7), shadow(7);
    for (int i = 0; i < 100; ++i) {
        z.sample(sampled);
        shadow.next();
        shadow.next();
    }
    EXPECT_EQ(sampled.next(), shadow.next());
}

TEST(ZipfSampler, TableIsPureFunctionOfParameters)
{
    // Construction consumes no randomness: two independently built
    // samplers agree draw-for-draw under identical Rng streams.
    ZipfSampler x(999, 0.7);
    ZipfSampler y(999, 0.7);
    Rng a(3), b(3);
    for (int i = 0; i < 200; ++i)
        EXPECT_EQ(x.sample(a), y.sample(b));
}

TEST(ZipfSampler, MultiMillionRankBuild)
{
    // The fleet bench draws keys from a 2M-rank space; the O(N) alias
    // build must handle it and the head must stay far hotter than the
    // tail.
    constexpr std::size_t kRanks = 2'000'000;
    ZipfSampler z(kRanks, 0.99);
    EXPECT_EQ(z.size(), kRanks);
    EXPECT_GT(z.pmf(0), 1000.0 * z.pmf(kRanks - 1));
    Rng rng(11);
    std::size_t head = 0;
    constexpr std::size_t kDraws = 20000;
    for (std::size_t i = 0; i < kDraws; ++i)
        if (z.sample(rng) < kRanks / 100)
            ++head;
    // With s = 0.99 the hottest 1% of ranks carries roughly half the
    // mass at this scale; loose lower bound to stay noise-proof.
    EXPECT_GT(head, kDraws / 4);
}

// Exact draw streams, pinned so that any change to the alias table's
// build (the order columns leave the worklists, the rounding of a
// column's remaining height) fails here, where the frequency checks
// above would pass it. Shapes: the fleet key space, TextGen's
// vocabulary, and small, uniform and single-rank edge cases. The
// values are the table's at the time the test was written; change them
// only with a deliberate change to the table.
TEST(ZipfSampler, StreamsPinnedToParent)
{
    struct Case
    {
        std::size_t n;
        double s;
        std::uint64_t hash;  ///< FNV-1a of 100k draws from Rng(1)
    };
    const Case cases[] = {
        {2'000'000, 0.99, 0xa3a52d9e8a56bc96ULL},
        {8000, 1.0, 0x32516278f1d61b21ULL},
        {4096, 0.99, 0x92d9f8501b4866b8ULL},
        {1000, 0.0, 0xe77d7600558c2276ULL},
        {7, 1.3, 0xcaac3f0588999740ULL},
        {1, 0.5, 0x3b4c88c55cdc7f83ULL},
    };
    for (const Case &c : cases) {
        ZipfSampler z(c.n, c.s);
        Rng rng(1);
        test::Digest d;
        for (int i = 0; i < 100'000; ++i)
            d.u64(z.sample(rng));
        EXPECT_EQ(d.h, c.hash) << "n " << c.n << ", s " << c.s << ": 0x"
                               << std::hex << d.h;
    }
}

/** A rank count the 32-bit alias table cannot index, an empty rank
 *  space and a negative or NaN exponent are configuration errors,
 *  rejected before the table is allocated. */
TEST(ZipfSampler, RejectsUnsupportedParameters)
{
    EXPECT_THROW(ZipfSampler(0, 0.99), FatalError);
    EXPECT_THROW(ZipfSampler(std::size_t{1} << 32, 0.99), FatalError);
    EXPECT_THROW(ZipfSampler(16, -0.5), FatalError);
    EXPECT_THROW(ZipfSampler(16, std::nan("")), FatalError);
}

} // namespace
} // namespace ccache::workload
