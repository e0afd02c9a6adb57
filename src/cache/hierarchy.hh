/**
 * @file
 * Three-level inclusive cache hierarchy with directory MESI coherence
 * over a ring NoC, modeled after Table IV (SandyBridge-like, Figure 1a).
 *
 * Eight cores each own a private L1-D and L2; a shared L3 is distributed
 * into per-core NUCA slices on the ring. Transactions execute atomically
 * (gem5-classic style): each access walks the hierarchy, performs all
 * coherence actions, moves real data, and returns its total latency while
 * charging the energy model per event.
 *
 * Compute Cache hooks: fetchToLevel() stages operands at a chosen level
 * (writing back or invalidating private copies as Section IV-E requires),
 * peek/poke give the CC controller in-place data access, and the page ->
 * slice map realizes the paper's "pages map to the NUCA slice closest to
 * the accessing core" assumption.
 */

#ifndef CCACHE_CACHE_HIERARCHY_HH
#define CCACHE_CACHE_HIERARCHY_HH

#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "cache/cache.hh"
#include "cache/directory.hh"
#include "common/bit_util.hh"
#include "common/event_trace.hh"
#include "common/stats.hh"
#include "energy/energy_model.hh"
#include "mem/memory.hh"
#include "noc/ring.hh"

namespace ccache::verify {
class CoherenceChecker;
} // namespace ccache::verify

namespace ccache::cache {

/** Cache geometries of the full hierarchy (Table IV by default). */
struct HierarchyParams
{
    CacheParams l1{geometry::CacheGeometryParams::l1d(), CacheLevel::L1};
    CacheParams l2{geometry::CacheGeometryParams::l2(), CacheLevel::L2};
    CacheParams l3{geometry::CacheGeometryParams::l3Slice(), CacheLevel::L3};
};

/** Where an access was served from. */
enum class ServedBy { L1, L2, L3, Memory };

const char *toString(ServedBy s);

/** Timing outcome of one block transaction. */
struct AccessResult
{
    Cycles latency = 0;
    ServedBy servedBy = ServedBy::L1;
};

/** Outcome of staging one block with Hierarchy::fetchToLevel. */
struct StageResult
{
    Cycles latency = 0;
    /** The block's slot in cacheInstance(level, cacheIndex); empty when
     *  an L1/L2 set full of pinned lines refused the fill. */
    LineRef line;
    /** The cache instance (Hierarchy::cacheInstance): the staging
     *  core at L1 and L2, the page's home slice at L3. */
    unsigned cacheIndex = 0;
};

/** The full memory system. */
class Hierarchy
{
  public:
    /** Queuing delay added to every L3 slice access (Table IV). */
    static constexpr Cycles kL3QueueDelay = 4;

    /** Table IV: an 8-core CMP, one core and one L3 slice per ring
     *  stop. */
    static constexpr unsigned kCores = 8;
    static_assert(kCores >= 1 && kCores <= noc::Ring::kNodes,
                  "every core needs its own ring stop");

    Hierarchy(const HierarchyParams &params, energy::EnergyModel *energy,
              StatRegistry *stats);

    const HierarchyParams &params() const { return params_; }

    Cache &l1(CoreId core) { return *l1_[core]; }
    Cache &l2(CoreId core) { return *l2_[core]; }
    Cache &l3Slice(unsigned slice) { return *l3_[slice]; }
    Directory &directory(unsigned slice) { return *dir_[slice]; }
    mem::Memory &memory() { return memory_; }
    noc::Ring &ring() { return ring_; }

    /** NUCA page placement (first touch binds a page to the accessing
     *  core's slice; mapPage overrides). @{ */
    void mapPage(Addr addr, unsigned slice);
    unsigned sliceFor(CoreId core, Addr addr);
    /** @} */

    /** Home slice of @p addr's page, without binding an untouched page
     *  (side-effect-free sliceFor, for auditors). */
    std::optional<unsigned> homeSliceIfMapped(Addr addr) const;

    /**
     * Runtime verification hook (DESIGN.md §9), detachable with
     * nullptr: the checker audits coherence invariants after every
     * read/write/fetch transaction and after flushAll. Disabled (the
     * default), it costs one branch per transaction.
     */
    void setChecker(verify::CoherenceChecker *checker)
    {
        checker_ = checker;
    }

    /** Attach (or detach with nullptr) a timeline event sink. Reads
     *  served beyond L1 become cache-category events; the sink is also
     *  forwarded to the ring. */
    void setTraceSink(EventTrace *trace)
    {
        trace_ = trace;
        ring_.setTraceSink(trace);
    }

    /**
     * Coherent block read: data lands in the core's L1 (unless
     * @p fill_to limits the fill depth) and is returned via @p out.
     */
    AccessResult read(CoreId core, Addr addr, Block *out = nullptr,
                      CacheLevel fill_to = CacheLevel::L1);

    /**
     * Coherent block write (request-for-ownership + full-block store).
     * With @p data null, only the ownership/dirty transition happens
     * (used for partial-line stores after a read-for-ownership).
     */
    AccessResult write(CoreId core, Addr addr, const Block *data = nullptr,
                       CacheLevel fill_to = CacheLevel::L1);

    /** Byte-granular convenience wrappers (split across blocks). @{ */
    Cycles loadBytes(CoreId core, Addr addr, void *out, std::size_t len);
    Cycles storeBytes(CoreId core, Addr addr, const void *data,
                      std::size_t len);
    /** @} */

    /**
     * Stage @p addr at @p level for an in-place CC operation
     * (Section IV-E): private copies above the level are written back
     * (and invalidated if @p exclusive); the block is fetched from below
     * if absent. With @p for_overwrite, an L3 miss allocates the line
     * without reading memory — the Figure 6 optimization for operands
     * that will be overwritten entirely.
     *
     * @return total latency of the staging, and the slot and cache
     *         instance the block was staged in, so the caller can pin
     *         it without a second lookup.
     */
    StageResult fetchToLevel(CoreId core, Addr addr, CacheLevel level,
                             bool exclusive, bool for_overwrite = false);

    /** The cache instance @p index at @p level: core @p index's L1 or
     *  L2, or L3 slice @p index. Inline: the CC controller resolves
     *  every staged row through it. */
    Cache &
    cacheInstance(CacheLevel level, unsigned index)
    {
        return level == CacheLevel::L1 ? *l1_[index]
            : level == CacheLevel::L2  ? *l2_[index]
                                       : *l3_[index];
    }

    /**
     * Functional back door for workload setup and checking, without
     * timing or energy side effects. The range forms take any byte
     * range and work a 4 KB page at a time: a page maps to one home
     * slice, and an unmapped page has no cached copies at all. @{
     */

    /** Authoritative current value of @p len bytes at @p addr: per
     *  block, a sharer's dirty private copy beats the home L3 copy,
     *  which beats memory. */
    void debugRead(Addr addr, void *out, std::size_t len);

    /** debugRead of the block holding @p addr. */
    Block
    debugRead(Addr addr)
    {
        Block b;
        debugRead(alignDown(addr, kBlockSize), b.data(), kBlockSize);
        return b;
    }

    /** Write @p len bytes at @p addr to memory; every cached copy of a
     *  touched block then takes memory's new value of the whole block,
     *  so a reload leaves the caches as coherent as a fresh machine. */
    void debugWrite(Addr addr, const void *data, std::size_t len);
    /** @} */

    /** Drop every cached block (between benchmark phases). Dirty data is
     *  flushed to memory. */
    void flushAll();

  private:
    /** Pre-hook bodies of the public transaction entry points. @{ */
    AccessResult readImpl(CoreId core, Addr addr, Block *out,
                          CacheLevel fill_to);
    AccessResult writeImpl(CoreId core, Addr addr, const Block *data,
                           CacheLevel fill_to);
    StageResult fetchToLevelImpl(CoreId core, Addr addr, CacheLevel level,
                                 bool exclusive, bool for_overwrite);
    /** @} */

    /** Ring stop of a core (cores and slices share stops). */
    static unsigned stopOf(CoreId core) { return core % noc::Ring::kNodes; }

    /** Write @p victim back from L1 into L2 (inclusion guarantees a
     *  resident line). */
    void l1Writeback(CoreId core, const Eviction &victim);

    /** Handle an L2 eviction: invalidate the L1 copy, write dirty data to
     *  the home L3 slice, update the directory. Returns extra latency. */
    Cycles l2Eviction(CoreId core, const Eviction &victim);

    /** Handle an L3 slice eviction: back-invalidate all private copies,
     *  write dirty data to memory. */
    void l3Eviction(unsigned slice, const Eviction &victim);

    /** Write @p data into the home @p slice's copy of @p addr, which
     *  inclusion guarantees is resident. */
    void writeHome(unsigned slice, Addr addr, const Block &data);

    /** Pull the newest private copy of @p addr held by @p owner into the
     *  home slice; downgrades (read) or invalidates (exclusive) the
     *  owner's copies. Returns added latency. */
    Cycles recallFromOwner(CoreId requester, CoreId owner, Addr addr,
                           unsigned slice, bool invalidate_owner);

    /** Invalidate every private copy except @p keeper's. */
    Cycles invalidateSharers(Addr addr, unsigned slice, CoreId keeper);

    /** Fill path L3 -> L2 -> L1 after a grant from home @p slice. */
    Cycles fillUpward(CoreId core, Addr addr, unsigned slice,
                      const Block &data, Mesi state, CacheLevel fill_to);

    /** Allocate @p addr, absent from its home @p slice, there: read from
     *  memory unless @p for_overwrite. Adds the latency to @p latency
     *  and returns the line's slot. */
    LineRef allocateInL3(unsigned slice, Addr addr, bool for_overwrite,
                         Cycles &latency);

    /** Record one served-beyond-L1 access on @p core's timeline track. */
    void traceAccess(const char *name, CoreId core, Addr addr,
                     const AccessResult &res);

    HierarchyParams params_;
    energy::EnergyModel *energy_;
    StatRegistry *stats_;
    EventTrace *trace_ = nullptr;
    verify::CoherenceChecker *checker_ = nullptr;

    std::vector<std::unique_ptr<Cache>> l1_;
    std::vector<std::unique_ptr<Cache>> l2_;
    std::vector<std::unique_ptr<Cache>> l3_;
    std::vector<std::unique_ptr<Directory>> dir_;
    mem::Memory memory_;
    noc::Ring ring_;
    std::unordered_map<Addr, unsigned> pageSlice_;
    /** Direct-mapped memo over pageSlice_ for the sliceFor /
     *  homeSliceIfMapped hot paths (DESIGN.md §13.4). A block op cycles
     *  through its src1, src2 and dest pages, which a one-entry memo
     *  misses every time; entries are picked by a multiplicative hash
     *  of the page number because operand bases tend to share their low
     *  page bits. Only mapped pages are memoized, and mapPage rewrites
     *  its page's entry; homeSliceIfMapped, logically const, updates
     *  it too. The table lives beside pageSlice_ on the heap rather
     *  than inside the Hierarchy: a 1 KB member shifts the heap layout
     *  of runs that build many hierarchies, which moved their peak RSS
     *  by ~3%. @{ */
    struct PageMemo
    {
        Addr page = ~Addr{0};   ///< never a page address: empty entry
        unsigned slice = 0;
    };
    static constexpr unsigned kPageMemoBits = 6;
    PageMemo &memoFor(Addr page) const
    {
        std::uint64_t n = (page >> kPageOffsetBits) * 0x9e3779b97f4a7c15ULL;
        return pageMemo_[n >> (64 - kPageMemoBits)];
    }
    std::unique_ptr<PageMemo[]> pageMemo_ =
        std::make_unique<PageMemo[]>(std::size_t{1} << kPageMemoBits);
    /** @} */

    /** Counters pre-registered under "hier." so the transaction hot
     *  paths increment through stable pointers instead of resolving
     *  dotted names per access (same pattern as Cache). Null without a
     *  registry. @{ */
    StatCounter *l1HitsStat_ = nullptr;
    StatCounter *l1MissesStat_ = nullptr;
    StatCounter *l2HitsStat_ = nullptr;
    StatCounter *l2MissesStat_ = nullptr;
    StatCounter *l3HitsStat_ = nullptr;
    StatCounter *l3MissesStat_ = nullptr;
    StatCounter *memReadsStat_ = nullptr;
    StatCounter *allocNoFetchStat_ = nullptr;
    StatCounter *l2WritebacksStat_ = nullptr;
    StatCounter *l3WritebacksStat_ = nullptr;
    StatCounter *ownerWritebacksStat_ = nullptr;
    StatCounter *sharerInvalidationsStat_ = nullptr;
    StatCounter *upgradesStat_ = nullptr;
    StatCounter *l1WriteHitsStat_ = nullptr;
    /** @} */
};

} // namespace ccache::cache

#endif // CCACHE_CACHE_HIERARCHY_HH
