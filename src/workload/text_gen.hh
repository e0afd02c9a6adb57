/**
 * @file
 * Deterministic Zipfian text generator.
 *
 * Stands in for the 10 MB / 50 MB text corpora the paper feeds WordCount
 * and StringMatch (Section VI-B). Real English word frequency is roughly
 * Zipf(1.0); the generator draws words from a synthetic vocabulary with
 * that distribution so dictionary size and hit locality match the shape
 * of a real corpus. The rank draw itself is the shared O(1) alias-table
 * sampler (workload/zipf.hh); TextGen only owns the vocabulary.
 */

#ifndef CCACHE_WORKLOAD_TEXT_GEN_HH
#define CCACHE_WORKLOAD_TEXT_GEN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "workload/zipf.hh"

namespace ccache::workload {

/** Configuration of the synthetic corpus. */
struct TextGenParams
{
    std::size_t vocabulary = 8000;  ///< distinct words
    std::size_t minWordLen = 3;
    std::size_t maxWordLen = 12;
    std::uint64_t seed = 0x7e87c0ffee;
};

/** Zipf-distributed word sampler with a fixed synthetic vocabulary. */
class TextGen
{
  public:
    explicit TextGen(const TextGenParams &params);

    /** The i-th vocabulary word (rank order: 0 is the most frequent). */
    const std::string &word(std::size_t rank) const
    {
        return vocab_[rank];
    }

    std::size_t vocabularySize() const { return vocab_.size(); }

    /** Draw the next word according to the Zipf distribution. */
    const std::string &nextWord();

    /** Generate roughly @p bytes of space-separated text. */
    std::string corpus(std::size_t bytes);

  private:
    TextGenParams params_;
    Rng rng_;
    std::vector<std::string> vocab_;
    ZipfSampler zipf_;
};

} // namespace ccache::workload

#endif // CCACHE_WORKLOAD_TEXT_GEN_HH
