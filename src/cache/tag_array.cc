#include "cache/tag_array.hh"

#include "common/logging.hh"

namespace ccache::cache {

TagArray::TagArray(std::size_t sets, std::size_t ways)
    : sets_(sets), ways_(ways),
      lines_(static_cast<Line *>(std::calloc(sets * ways, sizeof(Line))))
{
    CC_ASSERT(sets > 0 && ways > 0, "degenerate tag array");
    if (!lines_)
        CC_FATAL("tag array allocation failed (", sets, "x", ways, ")");
}

std::optional<std::size_t>
TagArray::victim(std::size_t set) const
{
    CC_ASSERT(set < sets_, "set ", set, " out of range");
    std::optional<std::size_t> best;
    std::uint64_t best_use = ~std::uint64_t{0};
    for (std::size_t w = 0; w < ways_; ++w) {
        const Line &l = lines_[index(set, w)];
        if (!l.valid())
            return w;
        if (!l.pinned && l.lastUse < best_use) {
            best_use = l.lastUse;
            best = w;
        }
    }
    return best;
}

} // namespace ccache::cache
