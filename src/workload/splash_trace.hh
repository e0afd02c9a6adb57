/**
 * @file
 * Synthetic SPLASH-2 write-footprint traces for the checkpointing study
 * (Section VI-B / Figures 10-11).
 *
 * The checkpointing overhead depends only on how many distinct pages an
 * application dirties per checkpoint interval (100k instructions in the
 * paper) and how its writes spread over its resident set. Each trace
 * reproduces a benchmark's published memory character: resident-set
 * size, write fraction, and page-reuse locality.
 */

#ifndef CCACHE_WORKLOAD_SPLASH_TRACE_HH
#define CCACHE_WORKLOAD_SPLASH_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"

namespace ccache::workload {

/** The six SPLASH-2 benchmarks of Figure 10. */
enum class SplashApp { Fmm, Radix, Cholesky, Barnes, Raytrace, Radiosity };

const char *toString(SplashApp app);

/** All six, in the paper's plotting order. */
std::vector<SplashApp> allSplashApps();

/** Memory character of one benchmark (shapes calibrated to published
 *  SPLASH-2 characterization data). */
struct SplashProfile
{
    std::size_t residentPages;     ///< touched working set, 4 KB pages
    double writeFraction;          ///< writes / memory accesses
    double pageLocality;           ///< probability a write reuses a
                                   ///< recently-dirtied page
    double memOpsPerInstr;         ///< memory accesses per instruction

    /** Mean distinct pages receiving their FIRST write per 100k-instr
     *  checkpoint interval — the copy-on-write rate that drives
     *  Figures 10-11. */
    double dirtyPagesPer100k;
};

SplashProfile profileFor(SplashApp app);

/** One simulated interval's worth of activity. */
struct IntervalActivity
{
    /** Distinct pages dirtied during the interval (these must be
     *  copy-on-write checkpointed before their first write). */
    std::vector<Addr> dirtiedPages;

    /** Total memory accesses issued. */
    std::uint64_t memAccesses = 0;
};

/** Trace generator: deterministic per (app, seed). */
class SplashTrace
{
  public:
    SplashTrace(SplashApp app, Addr heap_base = 0x10000000,
                std::uint64_t seed = 0x5b1a5b);

    SplashApp app() const { return app_; }
    const SplashProfile &profile() const { return profile_; }
    Addr heapBase() const { return heapBase_; }

    /** Generate the next checkpoint interval (@p instructions long). */
    IntervalActivity nextInterval(std::uint64_t instructions);

  private:
    SplashApp app_;
    SplashProfile profile_;
    Addr heapBase_;
    Rng rng_;
    std::vector<std::size_t> recentPages_;  ///< locality window
};

} // namespace ccache::workload

#endif // CCACHE_WORKLOAD_SPLASH_TRACE_HH
