#include "apps/wordcount.hh"

#include <algorithm>
#include <cstring>

#include "common/bit_util.hh"
#include "common/logging.hh"

namespace ccache::apps {

namespace {

/** Simulated-memory layout. @{ */
constexpr Addr kCorpusBase = 0x0100'0000;
constexpr Addr kDictBase = 0x0800'0000;
constexpr Addr kCountsBase = 0x0c00'0000;
constexpr Addr kKeyBase = 0x0080'0000;
/** @} */

/** FNV-1a, for layout-independent checksums. */
std::uint64_t
hashString(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** A word padded to one 64-byte CAM entry. */
Block
entryOf(const std::string &word)
{
    Block b{};
    std::memcpy(b.data(), word.data(),
                std::min(word.size(), kBlockSize - 1));
    return b;
}

/** Coherent 64-bit read (the freshest copy may be dirty in a cache). */
std::uint64_t
coherentWord(ccache::cache::Hierarchy &hier, Addr addr)
{
    Block b = hier.debugRead(addr & ~static_cast<Addr>(kBlockSize - 1));
    return blockWord(b, (addr % kBlockSize) / 8);
}

/** Bucket index from the first two letters (26 x 26 alphabet CAM). */
std::size_t
bucketOf(const std::string &word)
{
    auto letter = [](char c) {
        return static_cast<std::size_t>(c - 'a') % 26;
    };
    std::size_t first = letter(word[0]);
    std::size_t second = word.size() > 1 ? letter(word[1]) : 0;
    return first * 26 + second;
}

} // namespace

WordCount::WordCount(const WordCountConfig &config)
{
    workload::TextGen gen(config.text);
    corpus_ = gen.corpus(config.corpusBytes);

    // Tokenize once on the host; both engines charge the parse cost.
    std::size_t pos = 0;
    while (pos < corpus_.size()) {
        std::size_t end = corpus_.find(' ', pos);
        if (end == std::string::npos)
            end = corpus_.size();
        if (end > pos) {
            words_.push_back(corpus_.substr(pos, end - pos));
            ++reference_[words_.back()];
        }
        pos = end + 1;
    }
}

std::uint64_t
WordCount::checksumOf(const std::map<std::string, std::uint64_t> &counts)
{
    std::uint64_t sum = 0;
    for (const auto &[word, count] : counts)
        sum ^= hashString(word) * count;
    return sum;
}

AppRunResult
WordCount::runBaseline(sim::System &sys, Engine engine)
{
    auto &hier = sys.hierarchy();
    auto &em = sys.energy();
    sim::CoreCostModel cost;
    std::uint64_t extra_instrs = 0;

    sys.load(kCorpusBase, corpus_.data(), corpus_.size());

    // Sorted dictionary of 64-byte entries. Counts live in a stable
    // side array indexed by insertion id (real implementations reach the
    // count through a pointer stored with the entry), so sorted-insert
    // shifts do not move counts.
    std::vector<std::string> dict;
    std::vector<std::size_t> count_slot;   // parallel to dict
    std::size_t next_slot = 0;
    dict.reserve(4096);
    count_slot.reserve(4096);

    std::size_t vec = engine == Engine::Base32 ? 32 : 8;
    Addr corpus_pos = kCorpusBase;

    for (const auto &word : words_) {
        // Stream the text through the core (one load per vector chunk).
        for (std::size_t off = 0; off < word.size() + 1; off += vec) {
            Cycles lat = hier.loadBytes(0, corpus_pos + off, nullptr, vec);
            cost.addMemAccess(lat);
        }
        corpus_pos += word.size() + 1;
        cost.addInstrs(word.size());  // tokenizing / hashing the word
        extra_instrs += word.size();

        // Binary search over the sorted dictionary.
        std::size_t lo = 0, hi = dict.size();
        while (lo < hi) {
            std::size_t mid = (lo + hi) / 2;
            Addr entry = kDictBase + mid * kBlockSize;
            // Load the candidate entry and compare. Successive probes
            // form a dependent chain: no memory-level parallelism.
            for (std::size_t off = 0; off < kBlockSize; off += vec) {
                Cycles lat = hier.loadBytes(0, entry + off, nullptr, vec);
                if (off == 0)
                    cost.addDependentMemAccess(lat);
                else
                    cost.addMemAccess(lat);
            }
            cost.addInstrs(5);  // compare + index update
            // The probe's direction branch is data-dependent and
            // mispredicts ~half the time — a known cost of binary search
            // that the branch-free CAM probe avoids.
            cost.addBranches(1, 0.5);
            extra_instrs += 6;
            if (dict[mid] < word)
                lo = mid + 1;
            else if (dict[mid] > word)
                hi = mid;
            else {
                lo = hi = mid;
                break;
            }
        }

        bool found = lo < dict.size() && dict[lo] == word;
        if (!found) {
            // Insert keeping sorted order: the entries after the insert
            // point shift by one (bounded model: one bucket-sized move).
            dict.insert(dict.begin() + lo, word);
            count_slot.insert(count_slot.begin() + lo, next_slot++);
            std::size_t move = std::min(kBucketEntries, dict.size() - lo);
            for (std::size_t m = 0; m < move; ++m) {
                Addr from = kDictBase + (lo + m) * kBlockSize;
                Block entry = entryOf(dict[lo + m]);
                Cycles lat = hier.storeBytes(0, from, entry.data(),
                                             kBlockSize);
                cost.addMemAccess(lat);
            }
            cost.addInstrs(8);
            extra_instrs += 8;
        }

        // Count update through the entry's stable slot.
        Addr count_addr = kCountsBase + count_slot[lo] * 8;
        std::uint64_t count = coherentWord(hier, count_addr);
        Cycles lat = hier.loadBytes(0, count_addr, nullptr, 8);
        cost.addMemAccess(lat);
        std::uint64_t next = count + 1;
        lat = hier.storeBytes(0, count_addr, &next, 8);
        cost.addMemAccess(lat);
        cost.addInstrs(2);
        extra_instrs += 2;
    }

    em.chargeInstructions(extra_instrs);

    // Gather results from simulated memory.
    std::map<std::string, std::uint64_t> counts;
    sys.hierarchy().flushAll();
    for (std::size_t i = 0; i < dict.size(); ++i) {
        counts[dict[i]] = hier.memory().readWord(
            kCountsBase + count_slot[i] * 8);
    }

    AppRunResult res;
    res.cycles = cost.cycles();
    res.instructions = cost.instructions();
    sys.advance(0, res.cycles);
    res.dynamic = em.dynamic();
    res.totals = sys.totals();
    res.checksum = checksumOf(counts);
    return res;
}

AppRunResult
WordCount::runCc(sim::System &sys)
{
    auto &hier = sys.hierarchy();
    auto &em = sys.energy();
    sim::CoreCostModel cost;
    std::uint64_t extra_instrs = 0;
    Cycles cc_cycles = 0;

    sys.load(kCorpusBase, corpus_.data(), corpus_.size());

    // The dictionary is large, so searches run in L3 (Section VI-B).
    sys.cc().mutableParams().forceLevel = CacheLevel::L3;

    // Alphabet-indexed CAM: 26x26 buckets of kBucketEntries 64-byte slots.
    const std::size_t buckets = 26 * 26;
    const std::size_t bucket_bytes = kBucketEntries * kBlockSize;
    std::vector<std::vector<std::string>> bucket_words(buckets);
    // Overflow chains append whole buckets at the end of the region.
    std::vector<std::vector<std::size_t>> chains(buckets);
    std::size_t next_overflow = buckets;
    for (std::size_t b = 0; b < buckets; ++b)
        chains[b].push_back(b);

    auto slot_addr = [&](std::size_t chain_bucket, std::size_t slot) {
        return kDictBase + chain_bucket * bucket_bytes + slot * kBlockSize;
    };

    Addr corpus_pos = kCorpusBase;
    for (const auto &word : words_) {
        for (std::size_t off = 0; off < word.size() + 1; off += 32) {
            Cycles lat = hier.loadBytes(0, corpus_pos + off, nullptr, 32);
            cost.addMemAccess(lat);
        }
        corpus_pos += word.size() + 1;
        cost.addInstrs(word.size());
        extra_instrs += word.size();

        std::size_t b = bucketOf(word);
        Block key = entryOf(word);

        // Write the search key once (64 bytes) with a non-temporal
        // store straight to L3, where the searches will run — avoiding a
        // dirty-key recall on every instruction.
        Cycles lat = hier.write(0, kKeyBase, &key, CacheLevel::L3).latency;
        cost.addMemAccess(lat);

        // CAM-search the bucket chain with cc_search; each 1 KB bucket
        // is two 512-byte search instructions pipelined as a stream.
        auto &chain = chains[b];
        auto &entries = bucket_words[b];

        // Search only the occupied prefix of the chain: the software
        // tracks each bucket's fill level, so empty slots are skipped.
        std::vector<cc::CcInstruction> searches;
        std::vector<std::size_t> base_slots;
        std::size_t occupied = entries.size();
        for (std::size_t ci = 0; ci < chain.size() && occupied > 0;
             ++ci) {
            std::size_t cb = chain[ci];
            std::size_t in_bucket = std::min(occupied, kBucketEntries);
            occupied -= in_bucket;
            for (std::size_t first = 0; first < in_bucket;
                 first += cc::kMaxCmpBytes / kBlockSize) {
                std::size_t nblocks = std::min<std::size_t>(
                    cc::kMaxCmpBytes / kBlockSize, in_bucket - first);
                searches.push_back(cc::CcInstruction::search(
                    slot_addr(cb, first), kKeyBase, nblocks * kBlockSize));
                base_slots.push_back(ci * kBucketEntries + first);
            }
        }
        Cycles search_lat = 0;
        auto rs = sys.cc().executeStream(0, searches, &search_lat);
        cc_cycles += search_lat;

        // Mask instruction per search reports match/mismatch per entry:
        // a slot matches when all eight of its word-equality bits are
        // set. The mask result drives the application's control flow.
        std::int64_t found_at = -1;
        for (std::size_t si = 0; si < rs.size(); ++si) {
            std::size_t blocks_in = searches[si].size / kBlockSize;
            for (std::size_t blk = 0; blk < blocks_in; ++blk) {
                std::uint64_t bits = (rs[si].result >> (blk * 8)) & 0xff;
                if (bits == 0xff) {
                    found_at = static_cast<std::int64_t>(base_slots[si] +
                                                         blk);
                    break;
                }
            }
            if (found_at >= 0)
                break;
        }
        cost.addInstrs(rs.size());
        extra_instrs += rs.size();

        // The CAM search must agree with the host-side truth.
        bool host_found = false;
        for (std::size_t w = 0; w < entries.size(); ++w)
            host_found |= entries[w] == word;
        CC_ASSERT(host_found == (found_at >= 0),
                  "CAM search diverged from reference for '", word, "'");

        std::size_t slot;
        if (found_at >= 0) {
            slot = static_cast<std::size_t>(found_at);
        } else {
            // Append; grow the chain with an overflow bucket when full.
            if (entries.size() == chain.size() * kBucketEntries) {
                chain.push_back(next_overflow++);
            }
            slot = entries.size();
            entries.push_back(word);
            std::size_t cb = chain[slot / kBucketEntries];
            Addr dst = slot_addr(cb, slot % kBucketEntries);
            lat = hier.storeBytes(0, dst, key.data(), kBlockSize);
            cost.addMemAccess(lat);
            cost.addInstrs(4);
            extra_instrs += 4;
        }

        // Count update (counts array indexed by (bucket, slot)).
        Addr count_addr = kCountsBase +
            (b * 4096 + slot) * 8;
        std::uint64_t count = coherentWord(hier, count_addr);
        lat = hier.loadBytes(0, count_addr, nullptr, 8);
        cost.addMemAccess(lat);
        std::uint64_t next = count + 1;
        lat = hier.storeBytes(0, count_addr, &next, 8);
        cost.addMemAccess(lat);
        cost.addInstrs(2);
        extra_instrs += 2;
    }

    em.chargeInstructions(extra_instrs);

    std::map<std::string, std::uint64_t> counts;
    sys.hierarchy().flushAll();
    for (std::size_t b = 0; b < buckets; ++b) {
        for (std::size_t w = 0; w < bucket_words[b].size(); ++w) {
            counts[bucket_words[b][w]] = hier.memory().readWord(
                kCountsBase + (b * 4096 + w) * 8);
        }
    }

    AppRunResult res;
    res.cycles = cost.cycles() + cc_cycles;
    res.instructions = cost.instructions() +
        sys.stats().value("cc.instructions");
    sys.advance(0, res.cycles);
    res.dynamic = em.dynamic();
    res.totals = sys.totals();
    res.checksum = checksumOf(counts);
    return res;
}

AppRunResult
WordCount::run(sim::System &sys, Engine engine)
{
    return engine == Engine::Cc ? runCc(sys) : runBaseline(sys, engine);
}

} // namespace ccache::apps
