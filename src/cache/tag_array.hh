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

#include "cache/mesi.hh"
#include "common/types.hh"

namespace ccache::cache {

/** Result of a tag lookup. */
struct Lookup
{
    bool hit = false;
    std::size_t way = 0;
};

/**
 * Tags for a sets x ways cache, stored per set as a struct of arrays
 * (DESIGN.md §13.4, "Tag arrays"): the set's tag words, then its LRU
 * stamps, then its flag bytes, 17 bytes per way. A probe reads only the
 * contiguous tag words, 8 bytes per way, and a set's stamps and flags
 * sit right behind them. The tag word folds the valid bit in: 0 is an
 * invalid way, a valid way holds (tag << 1) | 1. The flags byte holds
 * the MESI state (never Invalid on a valid way), the dirty bit and the
 * pin bit.
 */
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
        const std::uint64_t key = word(tag);
        const std::uint64_t *tags = &tagWord(set, 0);
        for (std::size_t w = 0; w < ways_; ++w) {
            if (tags[w] == key)
                return {true, w};
        }
        return {false, 0};
    }

    /** True iff (set, way) holds @p tag (and is therefore valid). */
    bool holds(std::size_t set, std::size_t way, Addr tag) const
    {
        return tagWord(set, way) == word(tag);
    }

    bool valid(std::size_t set, std::size_t way) const
    {
        return tagWord(set, way) != 0;
    }
    /** Tag of a valid (set, way). */
    Addr tag(std::size_t set, std::size_t way) const
    {
        return tagWord(set, way) >> 1;
    }
    Mesi state(std::size_t set, std::size_t way) const
    {
        return static_cast<Mesi>(flags(set, way) & kStateMask);
    }
    bool dirty(std::size_t set, std::size_t way) const
    {
        return flags(set, way) & kDirty;
    }
    bool pinned(std::size_t set, std::size_t way) const
    {
        return flags(set, way) & kPinned;
    }

    /** Make (set, way) a valid, clean, unpinned line holding @p tag in
     *  @p state (not Invalid). Does not touch LRU state. */
    void install(std::size_t set, std::size_t way, Addr tag, Mesi state)
    {
        tagWord(set, way) = word(tag);
        flags(set, way) = static_cast<std::uint8_t>(state);
    }

    /** Make (set, way) invalid, clean and unpinned. */
    void invalidate(std::size_t set, std::size_t way)
    {
        tagWord(set, way) = 0;
        flags(set, way) = 0;
    }

    /** Set the state of a valid (set, way) to @p state (not Invalid). */
    void setState(std::size_t set, std::size_t way, Mesi state)
    {
        std::uint8_t &f = flags(set, way);
        f = static_cast<std::uint8_t>((f & ~kStateMask) |
                                      static_cast<std::uint8_t>(state));
    }
    void setDirty(std::size_t set, std::size_t way, bool dirty)
    {
        setFlag(flags(set, way), kDirty, dirty);
    }
    void setPinned(std::size_t set, std::size_t way, bool pinned)
    {
        setFlag(flags(set, way), kPinned, pinned);
    }

    /** Mark (set, way) most-recently-used. */
    void touch(std::size_t set, std::size_t way)
    {
        stamp(set, way) = ++useClock_;
    }

    /**
     * Choose a victim way in @p set: the first invalid way if present,
     * else the unpinned way with the oldest LRU stamp. Returns nullopt
     * if every way is pinned.
     */
    std::optional<std::size_t> victim(std::size_t set) const;

  private:
    static constexpr std::uint8_t kStateMask = 0x3;
    static constexpr std::uint8_t kDirty = 0x4;
    static constexpr std::uint8_t kPinned = 0x8;

    static std::uint64_t word(Addr tag) { return (tag << 1) | 1; }

    /** The three per-set arrays of (set, way), in words_: a set is
     *  setWords_ words long, its flag bytes padded to a whole word. @{ */
    std::uint64_t &tagWord(std::size_t set, std::size_t way) const
    {
        return words_[set * setWords_ + way];
    }
    std::uint64_t &stamp(std::size_t set, std::size_t way) const
    {
        return words_[set * setWords_ + ways_ + way];
    }
    std::uint8_t &flags(std::size_t set, std::size_t way) const
    {
        return reinterpret_cast<std::uint8_t *>(
            &words_[set * setWords_ + 2 * ways_])[way];
    }
    /** @} */

    static void setFlag(std::uint8_t &f, std::uint8_t bit, bool on)
    {
        f = static_cast<std::uint8_t>(on ? f | bit : f & ~bit);
    }

    /** An all-invalid tag array is all zeros, so its storage comes
     *  from calloc: the kernel's lazily-zeroed pages make constructing
     *  a cache O(touched sets) instead of O(capacity) — bench sweeps
     *  and the serving benches construct hundreds of full hierarchies,
     *  and short-lived ones never touch most sets (DESIGN.md §13). */
    struct FreeDeleter
    {
        void operator()(std::uint64_t *p) const { std::free(p); }
    };
    static_assert(static_cast<int>(Mesi::Invalid) == 0 &&
                      static_cast<int>(Mesi::Modified) <= kStateMask,
                  "a zero flags byte must read as Invalid, and every "
                  "state must fit the state bits");

    std::size_t sets_;
    std::size_t ways_;
    std::size_t setWords_;
    std::unique_ptr<std::uint64_t[], FreeDeleter> words_;
    std::uint64_t useClock_ = 0;
};

} // namespace ccache::cache

#endif // CCACHE_CACHE_TAG_ARRAY_HH
