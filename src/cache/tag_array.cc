#include "cache/tag_array.hh"

#include "common/bit_util.hh"
#include "common/logging.hh"

namespace ccache::cache {

TagArray::TagArray(std::size_t sets, std::size_t ways)
    : sets_(sets), ways_(ways), setWords_(2 * ways + divCeil(ways, 8)),
      words_(static_cast<std::uint64_t *>(
          std::calloc(sets * setWords_, sizeof(std::uint64_t))))
{
    CC_ASSERT(sets > 0 && ways > 0, "degenerate tag array");
    if (!words_)
        CC_FATAL("tag array allocation failed (", sets, "x", ways, ")");
}

std::optional<std::size_t>
TagArray::victim(std::size_t set) const
{
    CC_ASSERT(set < sets_, "set ", set, " out of range");
    for (std::size_t w = 0; w < ways_; ++w) {
        if (tagWord(set, w) == 0)
            return w;
    }
    std::optional<std::size_t> best;
    std::uint64_t best_use = ~std::uint64_t{0};
    for (std::size_t w = 0; w < ways_; ++w) {
        if (!(flags(set, w) & kPinned) && stamp(set, w) < best_use) {
            best_use = stamp(set, w);
            best = w;
        }
    }
    return best;
}

} // namespace ccache::cache
