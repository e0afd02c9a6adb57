/**
 * @file
 * WordCount (Section VI-B): builds a dictionary of unique words and their
 * frequencies from a text corpus.
 *
 * The baseline binary-searches a sorted dictionary per word; the Compute
 * Cache version models the dictionary as an alphabet-indexed CAM (first
 * two letters select a 1 KB bucket of 64-byte entries) probed with
 * cc_search in the L3 cache, plus the mask instructions that report
 * match position (the paper reports 87% fewer instructions and a 2x
 * speedup from this restructuring).
 */

#ifndef CCACHE_APPS_WORDCOUNT_HH
#define CCACHE_APPS_WORDCOUNT_HH

#include <map>
#include <string>

#include "apps/app_common.hh"
#include "workload/text_gen.hh"

namespace ccache::apps {

/** WordCount configuration. */
struct WordCountConfig
{
    std::size_t corpusBytes = 64 * 1024;
    workload::TextGenParams text;
};

/** The application. */
class WordCount
{
  public:
    /** CAM bucket size in 64-byte entries: 1 KB buckets (Section
     *  VI-B). */
    static constexpr std::size_t kBucketEntries = 16;

    explicit WordCount(const WordCountConfig &config = WordCountConfig{});

    /** Run on @p sys with @p engine; returns metrics + checksum. */
    AppRunResult run(sim::System &sys, Engine engine);

    /** Reference word counts (host-side), for verification. */
    const std::map<std::string, std::uint64_t> &reference() const
    {
        return reference_;
    }

    /** Layout-independent checksum of a word->count multiset. */
    static std::uint64_t
    checksumOf(const std::map<std::string, std::uint64_t> &counts);

  private:
    AppRunResult runBaseline(sim::System &sys, Engine engine);
    AppRunResult runCc(sim::System &sys);

    std::string corpus_;
    std::vector<std::string> words_;
    std::map<std::string, std::uint64_t> reference_;
};

} // namespace ccache::apps

#endif // CCACHE_APPS_WORDCOUNT_HH
