/**
 * @file
 * Directory for MESI coherence, co-located with each L3 slice (Table IV).
 *
 * Tracks which cores hold a block in their private L1/L2 caches and which
 * (if any) owns it exclusively. The hierarchy consults the directory to
 * forward requests, invalidate sharers and downgrade owners.
 */

#ifndef CCACHE_CACHE_DIRECTORY_HH
#define CCACHE_CACHE_DIRECTORY_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/types.hh"

namespace ccache::cache {

/** Directory entry: presence vector plus exclusive owner. */
struct DirEntry
{
    std::uint32_t sharers = 0;           ///< bit per core
    std::optional<CoreId> owner;         ///< core holding E/M

    bool hasSharers() const { return sharers != 0; }
};

/** Per-slice coherence directory. */
class Directory
{
  public:
    /** Entry for @p addr (empty if untracked). */
    DirEntry entry(Addr addr) const;

    /** Record that @p core obtained a shared copy. */
    void addSharer(Addr addr, CoreId core);

    /** Record that @p core obtained the exclusive copy; clears sharers. */
    void setOwner(Addr addr, CoreId core);

    /** Downgrade the owner (E/M -> S); keeps it as a sharer. */
    void downgradeOwner(Addr addr);

    /** Remove @p core's copy. */
    void removeSharer(Addr addr, CoreId core);

    /** Drop all presence info for @p addr (L3 eviction). */
    void clear(Addr addr);

    /** Cores (other than @p except) that must be invalidated for an
     *  exclusive request. */
    std::uint32_t sharersExcept(Addr addr, CoreId except) const;

    std::size_t trackedBlocks() const { return live_; }

    /** Visit every tracked block (coherence audits, diagnostics).
     *  Iteration order is unspecified; order-sensitive callers sort. */
    void forEachEntry(
        const std::function<void(Addr, const DirEntry &)> &fn) const
    {
        for (const Slot &s : slots_) {
            if (s.used)
                fn(s.key, s.val);
        }
    }

  private:
    /** The directory is on the hit path of every L3-level coherence
     *  action, so entries live in a linear-probing open-addressing
     *  table (power-of-two capacity, mix64 hash) rather than a node
     *  heap. Erases use backward-shift deletion to keep probe chains
     *  intact without tombstones (DESIGN.md §13). */
    struct Slot
    {
        Addr key = 0;
        DirEntry val;
        bool used = false;
    };

    /** Index of @p addr's slot, or slots_.size() if untracked. */
    std::size_t findSlot(Addr addr) const;

    /** Entry for @p addr, inserting an empty one if untracked. */
    DirEntry &findOrInsert(Addr addr);

    /** Remove the entry in slot @p hole (backward-shift deletion). */
    void eraseSlot(std::size_t hole);

    void grow();

    std::vector<Slot> slots_;
    std::size_t live_ = 0;
};

} // namespace ccache::cache

#endif // CCACHE_CACHE_DIRECTORY_HH
