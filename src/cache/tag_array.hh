/**
 * @file
 * Set-associative tag array with true-LRU replacement and line pinning.
 *
 * Pinning implements the CC controller's operand locking (Section IV-E):
 * while a Compute Cache operation waits for its remaining operands, the
 * already-fetched ones are pinned (and promoted to MRU) so they cannot be
 * evicted; a forwarded coherence request still releases the pin to avoid
 * deadlock, which the controller handles by re-fetching.
 */

#ifndef CCACHE_CACHE_TAG_ARRAY_HH
#define CCACHE_CACHE_TAG_ARRAY_HH

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <optional>
#include <type_traits>

#include "cache/mesi.hh"
#include "common/types.hh"

namespace ccache::cache {

/** Metadata of one cache line. */
struct Line
{
    Addr tag = 0;
    Mesi state = Mesi::Invalid;
    bool dirty = false;
    bool pinned = false;
    std::uint64_t lastUse = 0;

    bool valid() const { return cache::valid(state); }
};

/** Result of a tag lookup. */
struct Lookup
{
    bool hit = false;
    std::size_t way = 0;
};

/** Tags for a sets x ways cache. */
class TagArray
{
  public:
    TagArray(std::size_t sets, std::size_t ways);

    std::size_t sets() const { return sets_; }
    std::size_t ways() const { return ways_; }

    /** Find @p tag in @p set. Does not touch LRU state. Inline: this is
     *  the single hottest function of the MESI hierarchy. */
    Lookup lookup(std::size_t set, Addr tag) const
    {
        const Line *base = &lines_[set * ways_];
        for (std::size_t w = 0; w < ways_; ++w) {
            const Line &l = base[w];
            if (l.valid() && l.tag == tag)
                return {true, w};
        }
        return {false, 0};
    }

    /** Mark (set, way) most-recently-used. */
    void touch(std::size_t set, std::size_t way)
    {
        lines_[index(set, way)].lastUse = ++useClock_;
    }

    /**
     * Choose a victim way in @p set: an invalid way if present, else the
     * LRU unpinned way. Returns nullopt if every way is pinned.
     */
    std::optional<std::size_t> victim(std::size_t set) const;

    Line &line(std::size_t set, std::size_t way)
    {
        return lines_[index(set, way)];
    }
    const Line &line(std::size_t set, std::size_t way) const
    {
        return lines_[index(set, way)];
    }

  private:
    std::size_t index(std::size_t set, std::size_t way) const
    {
        return set * ways_ + way;
    }

    /** An all-Invalid tag array is exactly the all-zero object
     *  representation of its lines, so the backing store comes from
     *  calloc: the kernel's lazily-zeroed pages make constructing a
     *  cache O(touched sets) instead of O(capacity) — bench sweeps and
     *  the serving benches construct hundreds of full hierarchies, and
     *  short-lived ones never touch most sets (DESIGN.md §13). */
    struct FreeDeleter
    {
        void operator()(Line *p) const { std::free(p); }
    };
    static_assert(std::is_trivially_copyable_v<Line> &&
                      static_cast<int>(Mesi::Invalid) == 0,
                  "Line must be zero-initializable via calloc");

    std::size_t sets_;
    std::size_t ways_;
    std::unique_ptr<Line[], FreeDeleter> lines_;
    std::uint64_t useClock_ = 0;
};

} // namespace ccache::cache

#endif // CCACHE_CACHE_TAG_ARRAY_HH
