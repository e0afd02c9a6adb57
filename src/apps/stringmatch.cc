#include "apps/stringmatch.hh"

#include <cstring>

#include "common/bit_util.hh"
#include "common/logging.hh"

namespace ccache::apps {

namespace {

/** Encrypted keys to match against (drawn from the vocabulary so
 *  matches actually occur). */
constexpr std::size_t kNumKeys = 8;

/** Words per encrypted batch: 512 bytes, one cc_search. */
constexpr std::size_t kBatchWords = 8;
constexpr std::size_t kBatchBytes = kBatchWords * kBlockSize;
static_assert(kBatchBytes <= cc::kMaxCmpBytes, "a batch is one cc_search");

/** Simulated-memory layout. @{ */
constexpr Addr kBatchBase = 0x0040'0000;
constexpr Addr kKeysBase = 0x0042'0000;
/** @} */

} // namespace

Block
StringMatch::encrypt(const std::string &word)
{
    // Keyed xor-rotate transform: deterministic, collision-free enough
    // for distinct short words, and clearly core-side work.
    Block out{};
    std::uint64_t state = 0x5bd1e995u;
    for (std::size_t i = 0; i < kBlockSize; ++i) {
        unsigned char c = i < word.size() ? word[i] : 0;
        state = (state ^ (c + 0x9e37u)) * 0x100000001b3ULL;
        state = (state << 13) | (state >> 51);
        out[i] = static_cast<std::uint8_t>(state >> 24);
    }
    return out;
}

StringMatch::StringMatch(const StringMatchConfig &config)
{
    workload::TextGen gen(config.text);
    std::string corpus = gen.corpus(config.textBytes);

    std::size_t pos = 0;
    while (pos < corpus.size()) {
        std::size_t end = corpus.find(' ', pos);
        if (end == std::string::npos)
            end = corpus.size();
        if (end > pos)
            words_.push_back(corpus.substr(pos, end - pos));
        pos = end + 1;
    }

    // Keys: frequent vocabulary words, so matches occur.
    for (std::size_t k = 0; k < kNumKeys; ++k)
        keyWords_.push_back(gen.word(k * 3));

    refMatches_.assign(kNumKeys, 0);
    for (const auto &w : words_) {
        for (std::size_t k = 0; k < keyWords_.size(); ++k)
            refMatches_[k] += w == keyWords_[k] ? 1 : 0;
    }
}

AppRunResult
StringMatch::run(sim::System &sys, Engine engine)
{
    auto &hier = sys.hierarchy();
    auto &em = sys.energy();
    sim::CoreCostModel cost;
    std::uint64_t extra_instrs = 0;
    Cycles cc_cycles = 0;

    // Encrypted keys are staged once and stay hot.
    std::vector<Block> keys;
    for (std::size_t k = 0; k < keyWords_.size(); ++k) {
        keys.push_back(encrypt(keyWords_[k]));
        Cycles lat = hier.storeBytes(0, kKeysBase + k * kBlockSize,
                                     keys.back().data(), kBlockSize);
        cost.addMemAccess(lat);
        cost.addInstrs(2 * kBlockSize);  // encrypting the key
        extra_instrs += 2 * kBlockSize;
    }

    std::vector<std::uint64_t> matches(keyWords_.size(), 0);

    std::size_t vec = engine == Engine::Base32 ? 32 : 8;
    std::size_t batch_fill = 0;

    auto flush_batch = [&](std::size_t words_in_batch) {
        if (words_in_batch == 0)
            return;
        if (engine == Engine::Cc) {
            // cc_search in L1 per key over the whole batch; the searches
            // for different keys are independent and stream together.
            sys.cc().mutableParams().forceLevel = CacheLevel::L1;
            std::vector<cc::CcInstruction> searches;
            for (std::size_t k = 0; k < keys.size(); ++k) {
                searches.push_back(cc::CcInstruction::search(
                    kBatchBase, kKeysBase + k * kBlockSize, kBatchBytes));
            }
            Cycles lat = 0;
            auto rs = sys.cc().executeStream(0, searches, &lat);
            cc_cycles += lat;
            for (std::size_t k = 0; k < rs.size(); ++k) {
                for (std::size_t blk = 0; blk < words_in_batch; ++blk) {
                    std::uint64_t bits =
                        (rs[k].result >> (blk * 8)) & 0xff;
                    matches[k] += bits == 0xff ? 1 : 0;
                }
                cost.addInstrs(1);  // mask instruction
                extra_instrs += 1;
            }
        } else {
            // Baseline: compare every batched word against every key.
            for (std::size_t blk = 0; blk < words_in_batch; ++blk) {
                for (std::size_t k = 0; k < keys.size(); ++k) {
                    bool equal = true;
                    for (std::size_t off = 0; off < kBlockSize;
                         off += vec) {
                        std::vector<std::uint8_t> wbuf(vec), kbuf(vec);
                        Cycles lat = hier.loadBytes(
                            0, kBatchBase + blk * kBlockSize + off,
                            wbuf.data(), vec);
                        cost.addMemAccess(lat);
                        lat = hier.loadBytes(
                            0, kKeysBase + k * kBlockSize + off,
                            kbuf.data(), vec);
                        cost.addMemAccess(lat);
                        cost.addInstrs(2);
                        extra_instrs += 2;
                        equal &= wbuf == kbuf;
                    }
                    matches[k] += equal ? 1 : 0;
                }
            }
        }
    };

    for (std::size_t w = 0; w < words_.size(); ++w) {
        // Encrypt the word on the core and store it into the batch.
        Block enc = encrypt(words_[w]);
        cost.addInstrs(2 * kBlockSize);
        extra_instrs += 2 * kBlockSize;
        Cycles lat = hier.storeBytes(0, kBatchBase + batch_fill * kBlockSize,
                                     enc.data(), kBlockSize);
        cost.addMemAccess(lat);

        if (++batch_fill == kBatchWords) {
            flush_batch(batch_fill);
            batch_fill = 0;
        }
    }
    flush_batch(batch_fill);

    em.chargeInstructions(extra_instrs);

    // Functional check against the host reference.
    std::uint64_t checksum = 0;
    for (std::size_t k = 0; k < matches.size(); ++k) {
        CC_ASSERT(matches[k] == refMatches_[k], "key ", k, " matched ",
                  matches[k], " times, expected ", refMatches_[k]);
        checksum = checksum * 1000003 + matches[k];
    }

    AppRunResult res;
    res.cycles = cost.cycles() + cc_cycles;
    res.instructions = cost.instructions() +
        sys.stats().value("cc.instructions");
    sys.advance(0, res.cycles);
    res.dynamic = em.dynamic();
    res.totals = sys.totals();
    res.checksum = checksum;
    return res;
}

} // namespace ccache::apps
