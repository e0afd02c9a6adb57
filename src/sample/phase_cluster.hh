/**
 * @file
 * Deterministic seeded k-means phase clustering over interval feature
 * vectors (DESIGN.md §16).
 *
 * SimPoint-style phase detection: intervals with similar feature
 * vectors belong to the same program phase, one representative per
 * phase is simulated, and whole-run statistics are reconstituted as
 * the cluster-weight combination of the representatives.
 *
 * Determinism contract (the §8 byte-identity rules extend here): the
 * clustering is a pure function of (features, params). k-means++
 * seeding draws from an Rng seeded only by params.seed, Lloyd
 * iterations run in interval order, every tie (equidistant centroids,
 * equidistant representatives, empty clusters) breaks toward the
 * lowest index, and no floating-point reduction depends on thread
 * count — the clusterer is single-threaded by design; parallelism
 * belongs to the replay of the representatives, not the selection.
 */

#ifndef CCACHE_SAMPLE_PHASE_CLUSTER_HH
#define CCACHE_SAMPLE_PHASE_CLUSTER_HH

#include <cstdint>
#include <vector>

#include "sample/interval_profiler.hh"

namespace ccache::sample {

struct ClusterParams
{
    std::size_t clusters = 8;            ///< k (clamped to interval count)
    std::uint64_t seed = 0x5a4d9eedULL;  ///< k-means++ seeding stream
};

/** One phase: which intervals it owns and who represents them. */
struct Phase
{
    std::size_t representative = 0;  ///< interval index replayed for all
    std::uint64_t intervalCount = 0; ///< cluster size
    double weight = 0.0;             ///< intervalCount / totalIntervals
};

/** Clustering outcome. */
struct PhaseClustering
{
    std::vector<Phase> phases;            ///< one per non-empty cluster
    std::vector<std::size_t> assignment;  ///< interval -> phase index
    std::size_t iterations = 0;           ///< Lloyd iterations executed
    bool converged = false;
};

/**
 * Cluster @p intervals into at most params.clusters phases. Phases are
 * reported in order of their lowest member interval, so phase numbering
 * is stable and meaningful (phase 0 contains interval 0).
 */
PhaseClustering clusterIntervals(const std::vector<IntervalFeatures> &intervals,
                                 const ClusterParams &params);

} // namespace ccache::sample

#endif // CCACHE_SAMPLE_PHASE_CLUSTER_HH
