/**
 * @file
 * DB-BitMap (Section VI-B): bitmap-index query processing in the style
 * of FastBit over the STAR dataset.
 *
 * Queries OR (range) or AND (conjunction) large uncompressed bitmap
 * bins. The Compute Cache version issues cc_or / cc_and operations in
 * 2 KB chunks; the many chunk operations of one query are independent
 * and execute in parallel across sub-arrays (the paper reports a 1.6x
 * speedup and 43% instruction reduction).
 */

#ifndef CCACHE_APPS_DBBITMAP_HH
#define CCACHE_APPS_DBBITMAP_HH

#include <vector>

#include "apps/app_common.hh"
#include "workload/bitmap_gen.hh"

namespace ccache::apps {

/** One query of the mix. */
struct BitmapQuery
{
    enum class Kind { RangeOr, JoinAnd } kind = Kind::RangeOr;
    std::size_t loBin = 0;
    std::size_t hiBin = 0;   ///< inclusive; for JoinAnd: the second bin
};

/** DB-BitMap configuration. */
struct DbBitmapConfig
{
    workload::BitmapGenParams index;
    std::size_t numQueries = 12;
    std::uint64_t querySeed = 0xdb01;
};

/** The application. */
class DbBitmap
{
  public:
    /** Bytes per CC operation: 2 KB chunks (Section VI-B). */
    static constexpr std::size_t kChunkBytes = 2048;

    explicit DbBitmap(const DbBitmapConfig &config = DbBitmapConfig{});

    AppRunResult run(sim::System &sys, Engine engine);

    /**
     * Multi-core variant: queries distribute round-robin over @p cores,
     * each with a private result buffer, and the reported cycles are the
     * makespan of the slowest core. Independent queries over the shared
     * (read-only) index parallelize across NUCA slices.
     */
    AppRunResult runParallel(sim::System &sys, Engine engine,
                             unsigned cores);

    /** Average cycles per query of the last run. */
    double avgQueryCycles() const { return avgQueryCycles_; }

    const std::vector<BitmapQuery> &queries() const { return queries_; }

  private:
    Addr binAddr(std::size_t b) const;

    DbBitmapConfig config_;
    workload::BitmapIndex index_;
    std::vector<BitmapQuery> queries_;
    double avgQueryCycles_ = 0.0;
};

} // namespace ccache::apps

#endif // CCACHE_APPS_DBBITMAP_HH
