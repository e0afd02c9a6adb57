#include "sample/phase_cluster.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.hh"
#include "common/rng.hh"

namespace ccache::sample {

namespace {

double
sqDistance(const std::vector<double> &a, const std::vector<double> &b)
{
    double d = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        double diff = a[i] - b[i];
        d += diff * diff;
    }
    return d;
}

/** k-means++ seeding (Arthur & Vassilvitskii): the first centroid is a
 *  seeded uniform draw, each next one is drawn with probability
 *  proportional to its squared distance to the nearest chosen
 *  centroid. All draws come from @p rng only. */
std::vector<std::vector<double>>
seedCentroids(const std::vector<std::vector<double>> &points, std::size_t k,
              Rng &rng)
{
    std::vector<std::vector<double>> centroids;
    centroids.reserve(k);
    centroids.push_back(points[rng.below(points.size())]);

    std::vector<double> nearest(points.size(),
                                std::numeric_limits<double>::max());
    while (centroids.size() < k) {
        double total = 0.0;
        for (std::size_t i = 0; i < points.size(); ++i) {
            nearest[i] = std::min(nearest[i],
                                  sqDistance(points[i], centroids.back()));
            total += nearest[i];
        }
        if (total <= 0.0) {
            // All remaining points coincide with a centroid; further
            // centroids would be duplicates. Stop early.
            break;
        }
        double target = rng.uniform() * total;
        double acc = 0.0;
        std::size_t chosen = points.size() - 1;
        for (std::size_t i = 0; i < points.size(); ++i) {
            acc += nearest[i];
            if (acc >= target) {
                chosen = i;
                break;
            }
        }
        centroids.push_back(points[chosen]);
    }
    return centroids;
}

} // namespace

PhaseClustering
clusterIntervals(const std::vector<IntervalFeatures> &intervals,
                 const ClusterParams &params)
{
    PhaseClustering out;
    if (intervals.empty())
        return out;

    std::vector<std::vector<double>> points;
    points.reserve(intervals.size());
    for (const IntervalFeatures &f : intervals)
        points.push_back(f.normalized());

    std::size_t k = std::min(params.clusters, intervals.size());
    if (k == 0)
        CC_FATAL("cluster count must be positive");

    Rng rng(params.seed);
    std::vector<std::vector<double>> centroids =
        seedCentroids(points, k, rng);
    k = centroids.size();

    std::vector<std::size_t> assign(points.size(), 0);
    for (std::size_t iter = 0; iter < params.maxIterations; ++iter) {
        ++out.iterations;

        // Assignment step, in interval order; equidistant centroids
        // break toward the lowest centroid index (strict <).
        bool changed = false;
        for (std::size_t i = 0; i < points.size(); ++i) {
            std::size_t best = 0;
            double bestD = sqDistance(points[i], centroids[0]);
            for (std::size_t c = 1; c < k; ++c) {
                double d = sqDistance(points[i], centroids[c]);
                if (d < bestD) {
                    bestD = d;
                    best = c;
                }
            }
            if (assign[i] != best) {
                assign[i] = best;
                changed = true;
            }
        }
        if (!changed && iter > 0) {
            out.converged = true;
            break;
        }

        // Update step: mean of members, accumulated in interval order.
        // An emptied cluster keeps its old centroid (it can win points
        // back next iteration; dropping it here would renumber).
        std::vector<std::vector<double>> sums(
            k, std::vector<double>(points[0].size(), 0.0));
        std::vector<std::uint64_t> counts(k, 0);
        for (std::size_t i = 0; i < points.size(); ++i) {
            ++counts[assign[i]];
            for (std::size_t d = 0; d < points[i].size(); ++d)
                sums[assign[i]][d] += points[i][d];
        }
        for (std::size_t c = 0; c < k; ++c) {
            if (counts[c] == 0)
                continue;
            for (double &s : sums[c])
                s /= static_cast<double>(counts[c]);
            centroids[c] = std::move(sums[c]);
        }
    }

    // Representatives: per cluster, the member closest to the centroid;
    // ties break toward the lowest interval index (strict <).
    std::vector<std::size_t> rep(k, points.size());
    std::vector<double> repD(k, std::numeric_limits<double>::max());
    std::vector<std::uint64_t> counts(k, 0);
    for (std::size_t i = 0; i < points.size(); ++i) {
        std::size_t c = assign[i];
        ++counts[c];
        double d = sqDistance(points[i], centroids[c]);
        if (d < repD[c]) {
            repD[c] = d;
            rep[c] = i;
        }
    }

    // Report non-empty clusters ordered by their lowest member, so
    // phase numbering is stable across runs and readable in reports.
    std::vector<std::size_t> firstMember(k, points.size());
    for (std::size_t i = points.size(); i-- > 0;)
        firstMember[assign[i]] = i;
    std::vector<std::size_t> order;
    for (std::size_t c = 0; c < k; ++c)
        if (counts[c] > 0)
            order.push_back(c);
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  return firstMember[a] < firstMember[b];
              });

    std::vector<std::size_t> phaseOf(k, 0);
    for (std::size_t p = 0; p < order.size(); ++p) {
        std::size_t c = order[p];
        phaseOf[c] = p;
        Phase ph;
        ph.representative = rep[c];
        ph.intervalCount = counts[c];
        ph.weight = static_cast<double>(counts[c]) /
            static_cast<double>(points.size());
        out.phases.push_back(ph);
    }
    out.assignment.resize(points.size());
    for (std::size_t i = 0; i < points.size(); ++i)
        out.assignment[i] = phaseOf[assign[i]];
    return out;
}

} // namespace ccache::sample
