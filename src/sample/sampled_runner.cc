#include "sample/sampled_runner.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/parallel_for.hh"
#include "sim/system.hh"

namespace ccache::sample {

namespace {

double
relError(double est, double golden)
{
    if (golden == 0.0)
        return est == 0.0 ? 0.0 : 1.0;
    return std::abs(est - golden) / std::abs(golden);
}

} // namespace

double
SampleError::maxError() const
{
    return std::max({memMissRate, l1MissRate, ccOpsPerKCycle, cycles});
}

SampledRun
runSampled(const std::vector<sim::TraceRecord> &records,
           const SampledRunParams &params)
{
    if (params.intervalRecords == 0)
        CC_FATAL("interval size must be positive");

    SampledRun run;

    // 1. Streaming profile pass: features + exact totals.
    IntervalProfiler prof(params.intervalRecords);
    for (const sim::TraceRecord &rec : records)
        prof.observe(rec);
    prof.finish();
    const std::vector<IntervalFeatures> &intervals = prof.intervals();
    if (intervals.empty())
        return run;

    // 2. Phase clustering.
    ClusterParams cp;
    cp.clusters = params.clusters;
    cp.seed = params.seed;
    run.clustering = clusterIntervals(intervals, cp);

    // 3. Replay each phase's representative, fanned out into disjoint
    //    slots (byte-identical at any thread count, DESIGN.md §8). Each
    //    replay: fresh System, functional warm-up over the preceding
    //    records, metrics reset, then the interval.
    const std::vector<Phase> &phases = run.clustering.phases;
    run.representatives.resize(phases.size());
    unsigned jobs = params.jobs ? params.jobs : defaultJobs();
    parallelFor(jobs, phases.size(), [&](std::size_t p) {
        const Phase &phase = phases[p];
        const IntervalFeatures &iv = intervals[phase.representative];
        RepresentativeRun &rep = run.representatives[p];
        rep.interval = phase.representative;
        rep.intervalCount = phase.intervalCount;
        rep.weight = phase.weight;

        std::size_t start = iv.firstRecord;
        std::size_t warm = std::min<std::size_t>(params.warmupRecords,
                                                 start);
        rep.warmupUsed = warm;

        sim::System sys;
        sim::TraceReplayResult scratch;
        for (std::size_t i = start - warm; i < start; ++i)
            sim::replayRecord(sys, records[i], scratch);
        sys.resetMetrics();

        for (std::size_t i = start; i < start + iv.records; ++i)
            sim::replayRecord(sys, records[i], rep.metrics);
        rep.metrics.cycles = sys.elapsed();
        rep.coreCycles.reserve(cache::Hierarchy::kCores);
        for (unsigned c = 0; c < cache::Hierarchy::kCores; ++c)
            rep.coreCycles.push_back(
                sys.coreCycles(static_cast<CoreId>(c)));
    });

    // 4. Reconstitution. Counts are exact (profiler totals); rates are
    //    the weighted combination of the representatives, scaled by
    //    each phase's interval count.
    SampledEstimate &est = run.estimate;
    est.reads = prof.totals().reads;
    est.writes = prof.totals().writes;
    est.ccInstructions = prof.totals().ccOps;
    est.intervalsTotal = intervals.size();
    est.intervalsReplayed = phases.size();
    est.recordsTotal = prof.totals().records;

    std::vector<double> coreCycles;
    for (const RepresentativeRun &rep : run.representatives) {
        double scale = static_cast<double>(rep.intervalCount);
        est.l1Misses += scale * static_cast<double>(rep.metrics.l1Misses);
        est.memAccesses +=
            scale * static_cast<double>(rep.metrics.memAccesses);
        est.ccBlockOps +=
            scale * static_cast<double>(rep.metrics.ccBlockOps);
        if (coreCycles.size() < rep.coreCycles.size())
            coreCycles.resize(rep.coreCycles.size(), 0.0);
        for (std::size_t c = 0; c < rep.coreCycles.size(); ++c)
            coreCycles[c] +=
                scale * static_cast<double>(rep.coreCycles[c]);
        est.recordsReplayed += rep.warmupUsed +
            intervals[rep.interval].records;
    }
    // Whole-run time: cores run concurrently, so the estimate is the
    // slowest core's weighted sum, mirroring System::elapsed().
    for (double c : coreCycles)
        est.cycles = std::max(est.cycles, c);

    std::uint64_t demand = est.reads + est.writes;
    est.memMissRate = demand ? est.memAccesses /
            static_cast<double>(demand) : 0.0;
    est.l1MissRate = demand ? est.l1Misses /
            static_cast<double>(demand) : 0.0;
    est.ccOpsPerKCycle =
        est.cycles > 0.0 ? 1000.0 * est.ccBlockOps / est.cycles : 0.0;
    return run;
}

sim::TraceReplayResult
runFull(const std::vector<sim::TraceRecord> &records)
{
    sim::System sys;
    sim::TraceReplayResult res;
    for (const sim::TraceRecord &rec : records)
        sim::replayRecord(sys, rec, res);
    res.cycles = sys.elapsed();
    return res;
}

SampleError
compareWithGolden(const SampledEstimate &estimate,
                  const sim::TraceReplayResult &golden)
{
    SampleError err;
    err.memMissRate = relError(estimate.memMissRate,
                               golden.memMissRate());
    double goldenL1 = (golden.reads + golden.writes)
        ? static_cast<double>(golden.l1Misses) /
            static_cast<double>(golden.reads + golden.writes)
        : 0.0;
    err.l1MissRate = relError(estimate.l1MissRate, goldenL1);
    err.ccOpsPerKCycle = relError(estimate.ccOpsPerKCycle,
                                  golden.ccOpsPerKCycle());
    err.cycles = relError(estimate.cycles,
                          static_cast<double>(golden.cycles));
    return err;
}

} // namespace ccache::sample
