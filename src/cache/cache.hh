/**
 * @file
 * One cache level: geometry-mapped tags + data with access timing/energy.
 *
 * The data array is organized per the operand-locality-aware geometry of
 * Section IV-C: CacheGeometry::place() tells the CC controller which bank,
 * sub-array and block partition any resident line occupies, which drives
 * both the legality of in-place operations and the parallelism schedule.
 */

#ifndef CCACHE_CACHE_CACHE_HH
#define CCACHE_CACHE_CACHE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/tag_array.hh"
#include "common/block.hh"
#include "common/stats.hh"
#include "energy/energy_model.hh"
#include "geometry/cache_geometry.hh"

namespace ccache::cache {

/** Table IV access latency of @p level: L1 5, L2 11, L3 11 (every L3
 *  slice access also queues for Hierarchy::kL3QueueDelay). */
constexpr Cycles
accessLatency(CacheLevel level)
{
    return level == CacheLevel::L1 ? 5 : 11;
}

/** Configuration of one cache level. */
struct CacheParams
{
    geometry::CacheGeometryParams geometry;
    CacheLevel level = CacheLevel::L1;
};

/** A line evicted to make room for a fill. */
struct Eviction
{
    Addr addr;
    Block data;
    bool dirty;
    Mesi state;
};

/**
 * The (set, way) slot of a resident line, as Cache::find returned it,
 * or an empty handle (the default) when the line is absent. Every
 * per-line operation takes one, and requires it non-empty; only
 * questions about a line that may be absent take an address. A handle
 * is a hint, not a reference: once its line is invalidated or evicted
 * the slot can hold another line, so a holder that let other accesses
 * run since find() revalidates it with find(addr, hint), and never
 * keeps it past the operation it was found for (DESIGN.md §13.4).
 *
 * One 64-bit word, so a handle travels in a register: the hot paths
 * pass and return it on every staged row.
 */
class LineRef
{
  public:
    LineRef() = default;
    LineRef(std::size_t set, std::size_t way)
        : bits_((static_cast<std::uint64_t>(set) << 32) |
                static_cast<std::uint32_t>(way))
    {
    }

    explicit operator bool() const { return bits_ != kEmpty; }
    std::size_t set() const { return bits_ >> 32; }
    std::size_t way() const { return static_cast<std::uint32_t>(bits_); }

    bool operator==(const LineRef &) const = default;

  private:
    static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
    std::uint64_t bits_ = kEmpty;
};

/** Outcome of a fill. */
struct FillResult
{
    LineRef line;                      ///< where the filled line lives
    std::optional<Eviction> evicted;
};

/** One cache (an L1-D, an L2, or one L3 slice). */
class Cache
{
  public:
    Cache(const CacheParams &params, energy::EnergyModel *energy,
          StatRegistry *stats, std::string stat_prefix);

    const CacheParams &params() const { return params_; }
    const geometry::CacheGeometry &geom() const { return geom_; }
    CacheLevel level() const { return params_.level; }
    Cycles latency() const { return accessLatency(params_.level); }

    /** The slot of resident line @p addr, empty if absent: one
     *  address decode and tag probe, without LRU update or energy
     *  charge. This is the one address lookup: every per-line
     *  operation below takes the handle it returns. */
    LineRef
    find(Addr addr) const
    {
        auto f = geom_.decode(addr);
        return probe(f.set, f.tag);
    }

    /** find(@p addr), trying @p hint first: the hint is returned iff
     *  its slot still holds @p addr (valid bit and tag); on a mismatch
     *  the line is looked up by address. */
    LineRef
    find(Addr addr, LineRef hint) const
    {
        auto f = geom_.decode(addr);
        if (hint && hint.set() == f.set) {
            const Line &l = lineAt(hint);
            if (l.valid() && l.tag == f.tag)
                return hint;
        }
        return probe(f.set, f.tag);
    }

    /** Tag probe without LRU update or energy charge. */
    bool contains(Addr addr) const { return bool(find(addr)); }

    /** State of @p addr, Invalid if absent. */
    Mesi state(Addr addr) const;
    Mesi state(LineRef line) const { return lineAt(line).state; }

    /** Set the MESI state of a resident line. */
    void setState(LineRef line, Mesi state) { lineAt(line).state = state; }

    /** Read a resident block. Charges read energy, updates LRU. */
    void read(LineRef line, Block &out);

    /**
     * Write a resident block (marks it dirty/Modified is left to the
     * caller's coherence logic; this only moves data). Charges write
     * energy, updates LRU.
     */
    void write(LineRef line, const Block &data, bool set_dirty = true);

    /**
     * Insert @p addr with @p data in state @p state, evicting if needed.
     * Returns nullopt if no victim is available (all ways pinned).
     * Charges a write access.
     */
    std::optional<FillResult> fill(Addr addr, const Block &data, Mesi state);

    /**
     * Remove @p addr; returns its data and dirtiness so the caller can
     * write it back. Returns nullopt if not present.
     */
    std::optional<Eviction> invalidate(Addr addr);

    /** Operand pinning for the CC controller (Section IV-E). @{ */
    void pin(LineRef line) { lineAt(line).pinned = true; }
    void unpin(LineRef line) { lineAt(line).pinned = false; }
    bool isPinned(LineRef line) const { return lineAt(line).pinned; }
    /** Promote a line to MRU so it survives until its operation issues. */
    void promoteMRU(LineRef line) { tags_.touch(line.set(), line.way()); }
    /** @} */

    /** Mark a resident line dirty (after an in-place CC write). */
    void
    markDirty(LineRef line)
    {
        Line &l = lineAt(line);
        l.dirty = true;
        l.state = Mesi::Modified;
    }

    /** True iff the resident line holds dirty data. */
    bool isDirty(LineRef line) const { return lineAt(line).dirty; }

    /** Clear the dirty flag after the data has been written back. */
    void clearDirty(LineRef line) { lineAt(line).dirty = false; }

    /**
     * Data access for in-place compute: read/write the resident block
     * WITHOUT charging the baseline access energy — the CC controller
     * charges the Table V in-place cost instead. @{
     */
    const Block &peek(LineRef line) const { return data_[dataIndex(line)]; }
    void
    poke(LineRef line, const Block &data)
    {
        data_[dataIndex(line)] = data;
    }
    /** @} */

    /** Data of @p addr if it is resident and dirty, nullptr otherwise:
     *  find() plus isDirty() and peek() in one call. This is the
     *  Hierarchy::debugRead hot path (golden verification reads every
     *  block of every request). */
    const Block *dirtyPeek(Addr addr) const;

    /** Physical placement of a resident line, for the CC scheduler. */
    geometry::BlockPlace
    placeOf(LineRef line) const
    {
        return geom_.place(line.set(), line.way());
    }

    /** Visit every valid line (for flushes and integrity checks). */
    void forEachLine(
        const std::function<void(Addr, Mesi, bool, const Block &)> &fn)
        const;

    /** Reconstruct the block address of a resident (set, way). */
    Addr addrOf(std::size_t set, std::size_t way) const;

  private:
    std::size_t dataIndex(std::size_t set, std::size_t way) const
    {
        return set * params_.geometry.ways + way;
    }
    std::size_t dataIndex(LineRef line) const
    {
        return dataIndex(line.set(), line.way());
    }

    LineRef
    probe(std::size_t set, Addr tag) const
    {
        Lookup l = tags_.lookup(set, tag);
        return l.hit ? LineRef(set, l.way) : LineRef();
    }

    Line &lineAt(LineRef line) { return tags_.line(line.set(), line.way()); }
    const Line &lineAt(LineRef line) const
    {
        return tags_.line(line.set(), line.way());
    }

    void chargeRead();
    void chargeWrite();

    CacheParams params_;
    geometry::CacheGeometry geom_;
    TagArray tags_;
    /** Block storage, deliberately NOT zero-initialized: a data slot is
     *  meaningful only while its tag line is valid, and every path that
     *  validates a line (fill) writes the slot in the same call — so
     *  the constructor skips zeroing megabytes per cache. Restart-heavy
     *  harnesses construct hundreds of caches (DESIGN.md §13). */
    std::unique_ptr<Block[]> data_;
    energy::EnergyModel *energy_;
    /** Counters pre-registered under the cache's stat prefix (StatGroup
     *  registration), so the hot paths increment through stable pointers
     *  instead of re-building dotted names per access. Null without a
     *  registry. @{ */
    StatCounter *readsStat_ = nullptr;
    StatCounter *writesStat_ = nullptr;
    StatCounter *fillsStat_ = nullptr;
    StatCounter *evictionsStat_ = nullptr;
    StatCounter *invalidationsStat_ = nullptr;
    StatCounter *fillBlockedStat_ = nullptr;
    /** @} */
};

} // namespace ccache::cache

#endif // CCACHE_CACHE_CACHE_HH
