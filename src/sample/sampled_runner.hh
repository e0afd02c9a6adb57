/**
 * @file
 * Error-bounded sampled trace simulation (DESIGN.md §16).
 *
 * Pipeline: profile the trace into intervals (interval_profiler.hh),
 * cluster the intervals into phases (phase_cluster.hh), then replay
 * ONLY each phase's representative interval — each on a fresh System,
 * preceded by a configurable functional warm-up window (the records
 * immediately before the interval replay through the full hierarchy,
 * then metrics reset, so the representative starts from warmed caches
 * instead of cold ones). Whole-run statistics reconstitute as:
 *
 *  - count metrics (reads/writes/CC ops) come EXACTLY from the
 *    profiler's streaming totals — profiling sees every record, so
 *    these carry zero sampling error by construction (the SimPoint
 *    property: instruction counts are exact, only rates are
 *    estimated);
 *  - rate metrics (miss rates, CC-op throughput, cycles) are the
 *    cluster-weight combination of the representatives' measurements:
 *    estimate = sum_phase weight * metric(representative), with
 *    per-interval counts scaled by the phase's interval count.
 *
 * Against an optional golden full run the estimator reports
 * per-metric relative error; bench/sampled_trace gates those errors
 * in CI. Representative replays are independent simulations and fan
 * out with parallelFor into disjoint slots, so results are
 * byte-identical at any thread count (DESIGN.md §8).
 */

#ifndef CCACHE_SAMPLE_SAMPLED_RUNNER_HH
#define CCACHE_SAMPLE_SAMPLED_RUNNER_HH

#include <cstdint>
#include <vector>

#include "sample/interval_profiler.hh"
#include "sample/phase_cluster.hh"
#include "sim/trace.hh"

namespace ccache::sample {

struct SampledRunParams
{
    std::size_t intervalRecords = 1000;  ///< records per interval
    std::size_t clusters = 8;            ///< max phases (k)
    /** Functional warm-up: records replayed before each representative
     *  with metrics discarded. Defaults to one interval's worth. */
    std::size_t warmupRecords = 1000;
    std::uint64_t seed = 0x5a4d9eedULL;  ///< k-means++ seeding
    unsigned jobs = 0;                   ///< 0 = $CCACHE_JOBS default
};

/** One replayed representative's measurements. */
struct RepresentativeRun
{
    std::size_t interval = 0;        ///< interval index replayed
    std::uint64_t intervalCount = 0; ///< intervals this phase stands for
    double weight = 0.0;
    std::size_t warmupUsed = 0;      ///< warm-up records actually replayed
    sim::TraceReplayResult metrics;  ///< this interval only (post-warm-up)

    /** Post-warm-up cycles per core, indexed by CoreId. Kept separate
     *  from metrics.cycles (the interval makespan) because whole-run
     *  time must reconstitute per core: cores run concurrently, so the
     *  estimate is max over cores of the weighted per-core sums — not
     *  the sum of interval makespans, which double-counts parallel
     *  work on multi-core traces. */
    std::vector<Cycles> coreCycles;
};

/** Reconstituted whole-run estimate. */
struct SampledEstimate
{
    /** Exact totals (from profiling, not sampling). @{ */
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t ccInstructions = 0;
    /** @} */

    /** Weighted estimates. @{ */
    double l1Misses = 0.0;
    double memAccesses = 0.0;
    double ccBlockOps = 0.0;
    double cycles = 0.0;
    double memMissRate = 0.0;     ///< memAccesses / (reads + writes)
    double l1MissRate = 0.0;
    double ccOpsPerKCycle = 0.0;  ///< CC-op throughput
    /** @} */

    std::size_t intervalsTotal = 0;
    std::size_t intervalsReplayed = 0;
    std::uint64_t recordsTotal = 0;
    std::uint64_t recordsReplayed = 0;   ///< incl. warm-up records

    /** Fraction of intervals actually simulated. */
    double replayFraction() const
    {
        return intervalsTotal ? static_cast<double>(intervalsReplayed) /
                static_cast<double>(intervalsTotal) : 0.0;
    }
};

/** Per-metric relative error of an estimate vs a golden full run. */
struct SampleError
{
    double memMissRate = 0.0;
    double l1MissRate = 0.0;
    double ccOpsPerKCycle = 0.0;
    double cycles = 0.0;

    /** Largest of the four (the bench's gate input). */
    double maxError() const;
};

/** Full sampled-run outcome. */
struct SampledRun
{
    PhaseClustering clustering;
    std::vector<RepresentativeRun> representatives;  ///< phase order
    SampledEstimate estimate;
};

/**
 * Run the sampled pipeline over @p records. The profiling pass is
 * streaming and single-threaded; representative replays fan out
 * across params.jobs workers into per-phase slots.
 */
SampledRun runSampled(const std::vector<sim::TraceRecord> &records,
                      const SampledRunParams &params);

/** Golden full run of the same records (one fresh System). */
sim::TraceReplayResult
runFull(const std::vector<sim::TraceRecord> &records);

/** Relative errors |estimate - golden| / golden (0 when golden is 0). */
SampleError compareWithGolden(const SampledEstimate &estimate,
                              const sim::TraceReplayResult &golden);

} // namespace ccache::sample

#endif // CCACHE_SAMPLE_SAMPLED_RUNNER_HH
