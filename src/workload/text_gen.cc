#include "workload/text_gen.hh"

#include <set>

#include "common/logging.hh"

namespace ccache::workload {

TextGen::TextGen(const TextGenParams &params)
    : params_(params), rng_(params.seed),
      zipf_(params.vocabulary, params.zipfExponent)
{
    // An empty vocabulary never gets here: zipf_ rejects zero ranks.
    if (params.minWordLen < 1 || params.minWordLen > params.maxWordLen)
        CC_FATAL("bad word length range");

    // Unique synthetic words: lowercase letters, Zipf-rank ordered.
    std::set<std::string> seen;
    vocab_.reserve(params.vocabulary);
    while (vocab_.size() < params.vocabulary) {
        std::size_t len = params.minWordLen +
            rng_.below(params.maxWordLen - params.minWordLen + 1);
        std::string w(len, 'a');
        for (auto &c : w)
            c = static_cast<char>('a' + rng_.below(26));
        if (seen.insert(w).second)
            vocab_.push_back(std::move(w));
    }
}

const std::string &
TextGen::nextWord()
{
    return vocab_[zipf_.sample(rng_)];
}

std::string
TextGen::corpus(std::size_t bytes)
{
    std::string out;
    out.reserve(bytes + 16);
    while (out.size() < bytes) {
        out += nextWord();
        out += ' ';
    }
    out.resize(bytes);
    return out;
}

} // namespace ccache::workload
