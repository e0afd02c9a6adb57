/**
 * @file
 * Tests for the synthetic workload generators standing in for the
 * paper's proprietary inputs (text corpora, STAR bitmap index, SPLASH-2
 * traces).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <vector>

#include "common/logging.hh"
#include "workload/bitmap_gen.hh"
#include "workload/splash_trace.hh"
#include "workload/text_gen.hh"

namespace ccache::workload {
namespace {

TEST(TextGen, DeterministicForSameSeed)
{
    TextGenParams p;
    p.vocabulary = 100;
    TextGen a(p), b(p);
    EXPECT_EQ(a.corpus(1000), b.corpus(1000));
}

TEST(TextGen, VocabularyIsUniqueWords)
{
    TextGenParams p;
    p.vocabulary = 500;
    TextGen gen(p);
    std::set<std::string> seen;
    for (std::size_t i = 0; i < gen.vocabularySize(); ++i) {
        const auto &w = gen.word(i);
        EXPECT_GE(w.size(), p.minWordLen);
        EXPECT_LE(w.size(), p.maxWordLen);
        EXPECT_TRUE(seen.insert(w).second) << "duplicate " << w;
    }
}

TEST(TextGen, ZipfSkewTopWordDominates)
{
    TextGenParams p;
    p.vocabulary = 1000;
    TextGen gen(p);
    std::map<std::string, int> counts;
    for (int i = 0; i < 20000; ++i)
        ++counts[gen.nextWord()];
    // Rank-0 word should appear far more often than rank-100.
    int top = counts[gen.word(0)];
    int mid = counts[gen.word(100)];
    EXPECT_GT(top, 10 * std::max(1, mid));
}

TEST(TextGen, CorpusIsRequestedSize)
{
    TextGenParams p;
    p.vocabulary = 50;
    TextGen gen(p);
    EXPECT_EQ(gen.corpus(12345).size(), 12345u);
}

TEST(BitmapGen, EachRowSetsExactlyOneBin)
{
    BitmapGenParams p;
    p.rows = 4096;
    p.bins = 8;
    BitmapIndex index(p);
    BitVector acc(p.rows);
    std::size_t total = 0;
    for (std::size_t b = 0; b < index.bins(); ++b) {
        total += index.bin(b).popcount();
        acc |= index.bin(b);
    }
    EXPECT_EQ(total, p.rows);           // exactly one bin per row
    EXPECT_EQ(acc.popcount(), p.rows);  // no row unassigned
}

TEST(BitmapGen, SkewMakesEarlyBinsDenser)
{
    BitmapGenParams p;
    p.rows = 1 << 16;
    p.bins = 16;
    p.skew = 1.0;
    BitmapIndex index(p);
    EXPECT_GT(index.bin(0).popcount(), 2 * index.bin(15).popcount());
}

TEST(BitmapGen, ReferenceQueriesMatchManualEvaluation)
{
    BitmapGenParams p;
    p.rows = 2048;
    p.bins = 4;
    BitmapIndex index(p);
    BitVector manual = index.bin(1) | index.bin(2);
    EXPECT_EQ(index.rangeQueryReference(1, 2), manual);
    EXPECT_EQ(index.andReference(0, 0), index.bin(0));
    // Equality-encoded bins are disjoint: AND of two bins is empty.
    EXPECT_TRUE(index.andReference(0, 1).none());
}

TEST(BitmapGen, BinBytesWordPadded)
{
    BitmapGenParams p;
    p.rows = 100;
    p.bins = 2;
    BitmapIndex index(p);
    EXPECT_EQ(index.binBytes(), 16u);  // 100 bits -> 2 x 64-bit words
}

/** The row-to-bin rule as a full scan, for an oracle: one uniform per
 *  row in ascending order, bin = the count of cdf entries below it,
 *  clamped to the last bin. Returns each bin's words. */
std::vector<std::vector<std::uint64_t>>
fullScanBins(const BitmapGenParams &p)
{
    std::vector<double> cdf(p.bins);
    double sum = 0.0;
    for (std::size_t b = 0; b < p.bins; ++b) {
        sum += 1.0 / std::pow(static_cast<double>(b + 1), p.skew);
        cdf[b] = sum;
    }
    for (double &v : cdf)
        v /= sum;
    std::vector<std::vector<std::uint64_t>> words(
        p.bins, std::vector<std::uint64_t>((p.rows + 63) / 64));
    Rng rng(p.seed);
    for (std::size_t row = 0; row < p.rows; ++row) {
        const double u = rng.uniform();
        std::size_t b = 0;
        for (double v : cdf)
            b += v < u ? 1 : 0;
        b = std::min(b, p.bins - 1);
        words[b][row / 64] |= std::uint64_t{1} << (row % 64);
    }
    return words;
}

TEST(BitmapGen, GuideTableMatchesFullScan)
{
    // Every word of every bin, against the full scan: bin counts on
    // both sides of 32, flat to steep skew, and row counts around a
    // word boundary up to the DB-BitMap default.
    const std::uint64_t seeds[] = {1, 2, BitmapGenParams{}.seed};
    const std::size_t binCounts[] = {1, 2, 32, 33};
    const double skews[] = {0.0, 0.5, 2.0};
    const std::size_t rowCounts[] = {1, 63, 64, 65, std::size_t{1} << 21};
    for (std::uint64_t seed : seeds)
        for (std::size_t bins : binCounts)
            for (double skew : skews)
                for (std::size_t rows : rowCounts) {
                    BitmapGenParams p;
                    p.seed = seed;
                    p.bins = bins;
                    p.skew = skew;
                    p.rows = rows;
                    const BitmapIndex index(p);
                    const auto want = fullScanBins(p);
                    ASSERT_EQ(index.bins(), bins);
                    for (std::size_t b = 0; b < bins; ++b) {
                        const auto &got = index.bin(b).words();
                        ASSERT_EQ(got.size(), want[b].size());
                        auto diff = std::mismatch(got.begin(), got.end(),
                                                  want[b].begin());
                        ASSERT_TRUE(diff.first == got.end())
                            << "seed " << seed << ", bins " << bins
                            << ", skew " << skew << ", rows " << rows
                            << ": bin " << b << " differs at word "
                            << diff.first - got.begin();
                    }
                }
}

TEST(SplashTrace, AllAppsHaveProfiles)
{
    for (auto app : allSplashApps()) {
        SplashProfile prof = profileFor(app);
        EXPECT_GT(prof.residentPages, 0u);
        EXPECT_GT(prof.writeFraction, 0.0);
        EXPECT_LT(prof.writeFraction, 1.0);
        EXPECT_GT(prof.dirtyPagesPer100k, 0.0);
        EXPECT_NE(toString(app), std::string("?"));
    }
}

TEST(SplashTrace, RadixDirtiesMostPages)
{
    // The paper's Figure 10 shows radix with the worst checkpointing
    // overhead; our profiles must preserve that ordering.
    double radix = profileFor(SplashApp::Radix).dirtyPagesPer100k;
    for (auto app : allSplashApps()) {
        if (app != SplashApp::Radix) {
            EXPECT_GT(radix, profileFor(app).dirtyPagesPer100k);
        }
    }
    // raytrace is the tamest.
    double raytrace = profileFor(SplashApp::Raytrace).dirtyPagesPer100k;
    for (auto app : allSplashApps()) {
        if (app != SplashApp::Raytrace) {
            EXPECT_LT(raytrace, profileFor(app).dirtyPagesPer100k);
        }
    }
}

TEST(SplashTrace, IntervalsProduceCalibratedDirtyRate)
{
    SplashTrace trace(SplashApp::Radix);
    double mean = profileFor(SplashApp::Radix).dirtyPagesPer100k;
    std::size_t total = 0;
    const int intervals = 200;
    for (int i = 0; i < intervals; ++i)
        total += trace.nextInterval(100000).dirtiedPages.size();
    double measured = static_cast<double>(total) / intervals;
    EXPECT_GT(measured, 0.5 * mean);
    EXPECT_LT(measured, 1.5 * mean);
}

TEST(SplashTrace, PagesAreAlignedAndInHeap)
{
    SplashTrace trace(SplashApp::Fmm, 0x40000000);
    auto act = trace.nextInterval(500000);
    for (Addr p : act.dirtiedPages) {
        EXPECT_EQ(p % kPageSize, 0u);
        EXPECT_GE(p, 0x40000000u);
    }
    EXPECT_GT(act.memAccesses, 0u);
}

TEST(SplashTrace, DeterministicPerSeed)
{
    SplashTrace a(SplashApp::Barnes, 0x1000000, 7);
    SplashTrace b(SplashApp::Barnes, 0x1000000, 7);
    SplashTrace c(SplashApp::Barnes, 0x1000000, 0xfeed);
    bool differs = false;
    for (int i = 0; i < 3; ++i) {
        auto ia = a.nextInterval(100000);
        auto ib = b.nextInterval(100000);
        auto ic = c.nextInterval(100000);
        EXPECT_EQ(ia.dirtiedPages, ib.dirtiedPages);
        differs = differs || ia.dirtiedPages != ic.dirtiedPages;
    }
    EXPECT_TRUE(differs) << "a different seed drew the same intervals";
}

TEST(TextGen, RejectsEmptyVocabularyAndBadWordLengths)
{
    TextGenParams empty;
    empty.vocabulary = 0;
    EXPECT_THROW(TextGen{empty}, FatalError);
    TextGenParams zero_len;
    zero_len.minWordLen = 0;
    EXPECT_THROW(TextGen{zero_len}, FatalError);
    TextGenParams inverted;
    inverted.minWordLen = 9;
    inverted.maxWordLen = 4;
    EXPECT_THROW(TextGen{inverted}, FatalError);
}

TEST(BitmapGen, RejectsDegenerateIndex)
{
    BitmapGenParams no_bins;
    no_bins.bins = 0;
    EXPECT_THROW(BitmapIndex{no_bins}, FatalError);
    BitmapGenParams no_rows;
    no_rows.rows = 0;
    EXPECT_THROW(BitmapIndex{no_rows}, FatalError);
}

} // namespace
} // namespace ccache::workload
