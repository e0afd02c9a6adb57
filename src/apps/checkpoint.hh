/**
 * @file
 * In-memory copy-on-write checkpointing (Section VI-B, Figures 10-11).
 *
 * Every checkpoint interval (100k application instructions in the paper)
 * the first write to a page triggers a 4 KB copy into the shadow region.
 * Shadow pages share their source's page offset, so checkpoint copies
 * have perfect operand locality and the Compute Cache executes them
 * entirely in-place (the paper reduces the 30% Base_32 overhead to 6%).
 */

#ifndef CCACHE_APPS_CHECKPOINT_HH
#define CCACHE_APPS_CHECKPOINT_HH

#include "apps/app_common.hh"
#include "workload/splash_trace.hh"

namespace ccache::apps {

/** Checkpointing configuration. */
struct CheckpointConfig
{
    std::size_t intervals = 40;
    std::uint64_t seed = 0x5b1a5b;
};

/** Result of a checkpointing run. */
struct CheckpointResult
{
    AppRunResult app;

    /** Cycles of pure application compute (the no-checkpoint run). */
    Cycles baseCycles = 0;

    /** Cycles added by checkpoint copies. */
    Cycles checkpointCycles = 0;

    /** Total dirty pages copied. */
    std::uint64_t pagesCopied = 0;

    /** Figure 10 metric: checkpoint overhead over no-checkpointing. */
    double overheadPct() const
    {
        return baseCycles == 0
            ? 0.0
            : 100.0 * static_cast<double>(checkpointCycles) /
                static_cast<double>(baseCycles);
    }
};

/** The checkpointing harness for one SPLASH-2-like workload. */
class Checkpoint
{
  public:
    /** Application instructions per checkpoint interval (Section
     *  VI-B). */
    static constexpr std::uint64_t kIntervalInstructions = 100000;

    Checkpoint(workload::SplashApp app,
               const CheckpointConfig &config = CheckpointConfig{});

    /**
     * Run @p intervals checkpoint intervals on @p sys. With
     * @p checkpointing false this produces the no_chkpt baseline of
     * Figure 11.
     */
    CheckpointResult run(sim::System &sys, Engine engine,
                         bool checkpointing = true);

  private:
    workload::SplashApp app_;
    CheckpointConfig config_;
};

} // namespace ccache::apps

#endif // CCACHE_APPS_CHECKPOINT_HH
