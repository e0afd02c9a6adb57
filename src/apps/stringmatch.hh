/**
 * @file
 * StringMatch (Section VI-B): reads words from a text, encrypts them and
 * compares them against a list of encrypted keys.
 *
 * Encryption cannot be offloaded to the cache, so the encrypted words
 * live in the L1 cache and the Compute Cache version batches them and
 * probes each batch with cc_search in L1, where a single instruction
 * compares one encrypted key against many encrypted words (the paper
 * reports a 32% instruction reduction and 1.5x speedup).
 */

#ifndef CCACHE_APPS_STRINGMATCH_HH
#define CCACHE_APPS_STRINGMATCH_HH

#include <string>
#include <vector>

#include "apps/app_common.hh"
#include "workload/text_gen.hh"

namespace ccache::apps {

/** StringMatch configuration. */
struct StringMatchConfig
{
    std::size_t textBytes = 64 * 1024;
    workload::TextGenParams text;

    /** Encrypted keys to match against (drawn from the vocabulary so
     *  matches actually occur). */
    std::size_t numKeys = 8;

    /** Words per encrypted batch (512 bytes = one cc_search). */
    std::size_t batchWords = 8;

    Addr batchBase = 0x0040'0000;
    Addr keysBase = 0x0042'0000;
};

/** The application. */
class StringMatch
{
  public:
    explicit StringMatch(
        const StringMatchConfig &config = StringMatchConfig{});

    AppRunResult run(sim::System &sys, Engine engine);

    /** Host-side reference: matches per key. */
    const std::vector<std::uint64_t> &referenceMatches() const
    {
        return refMatches_;
    }

    /** The toy keyed transform standing in for encryption. */
    static Block encrypt(const std::string &word);

  private:
    StringMatchConfig config_;
    std::vector<std::string> words_;
    std::vector<std::string> keyWords_;
    std::vector<std::uint64_t> refMatches_;
};

} // namespace ccache::apps

#endif // CCACHE_APPS_STRINGMATCH_HH
