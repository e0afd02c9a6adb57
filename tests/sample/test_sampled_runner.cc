/**
 * @file
 * Property tests for the sampled runner: over a sweep of generator
 * seeds, the reconstituted count metrics are EXACT (they come from the
 * profiling pass, not the sample) and the estimated miss rate stays
 * inside the bench's gate bound.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/rng.hh"
#include "sample/sampled_runner.hh"

namespace ccache::sample {
namespace {

constexpr std::size_t kInterval = 250;
constexpr double kMissRateBound = 0.05;  ///< bench/sampled_trace gate

/** Small three-phase trace (stream / hot / cc), phase-aligned to the
 *  interval size, randomized per seed. */
std::vector<sim::TraceRecord>
makeTrace(std::uint64_t seed, std::size_t rounds = 8)
{
    Rng rng(seed);
    std::vector<sim::TraceRecord> out;
    std::uint64_t streamCursor = 0;
    auto mem = [&](sim::TraceRecord::Kind kind, CoreId core, Addr addr) {
        sim::TraceRecord rec;
        rec.kind = kind;
        rec.core = core;
        rec.addr = addr;
        out.push_back(rec);
    };
    for (std::size_t round = 0; round < rounds; ++round) {
        for (std::size_t i = 0; i < kInterval; ++i)
            mem(sim::TraceRecord::Kind::Read, 0,
                0x10000000 + (streamCursor++) * kBlockSize);
        for (std::size_t i = 0; i < kInterval; ++i)
            mem(rng.chance(0.3) ? sim::TraceRecord::Kind::Write
                                : sim::TraceRecord::Kind::Read,
                1, 0x20000000 + rng.below(64) * kBlockSize);
        for (std::size_t i = 0; i < kInterval; ++i) {
            sim::TraceRecord rec;
            rec.kind = sim::TraceRecord::Kind::CcOp;
            rec.core = 2;
            rec.instr = cc::CcInstruction::copy(
                0x30000000 + rng.below(64) * 1024,
                0x30000000 + (64 + rng.below(64)) * 1024, 1024);
            out.push_back(rec);
        }
    }
    return out;
}

SampledRunParams
testParams()
{
    SampledRunParams params;
    params.intervalRecords = kInterval;
    params.clusters = 4;
    // Warm-up must span a full phase round (3 intervals) so a
    // representative whose phase keeps state resident across rounds
    // (the hot loop) sees warmed L2/L3 the way the full run does.
    params.warmupRecords = 3 * kInterval;
    params.jobs = 1;
    return params;
}

TEST(SampledRunner, CountMetricsExactAcrossSeeds)
{
    for (std::uint64_t seed : {11u, 22u, 33u, 44u, 55u}) {
        auto records = makeTrace(seed);
        SampledRun run = runSampled(records, testParams());
        sim::TraceReplayResult golden = runFull(records);

        // The SimPoint property: counts come from profiling every
        // record, so they match the full run exactly, per seed.
        EXPECT_EQ(run.estimate.reads, golden.reads) << seed;
        EXPECT_EQ(run.estimate.writes, golden.writes) << seed;
        EXPECT_EQ(run.estimate.ccInstructions, golden.ccInstructions)
            << seed;
        EXPECT_EQ(run.estimate.recordsTotal, records.size()) << seed;
    }
}

TEST(SampledRunner, MissRateWithinGateBoundAcrossSeeds)
{
    for (std::uint64_t seed : {101u, 202u, 303u, 404u, 505u}) {
        auto records = makeTrace(seed);
        SampledRun run = runSampled(records, testParams());
        sim::TraceReplayResult golden = runFull(records);
        SampleError err = compareWithGolden(run.estimate, golden);
        EXPECT_LE(err.memMissRate, kMissRateBound) << "seed " << seed;
        // Far fewer intervals simulated than exist.
        EXPECT_LT(run.estimate.intervalsReplayed,
                  run.estimate.intervalsTotal);
    }
}

TEST(SampledRunner, DeterministicAcrossWorkerCounts)
{
    auto records = makeTrace(7);
    SampledRunParams p1 = testParams();
    SampledRunParams p8 = testParams();
    p8.jobs = 8;
    SampledRun a = runSampled(records, p1);
    SampledRun b = runSampled(records, p8);

    ASSERT_EQ(a.representatives.size(), b.representatives.size());
    for (std::size_t i = 0; i < a.representatives.size(); ++i) {
        EXPECT_EQ(a.representatives[i].interval,
                  b.representatives[i].interval);
        EXPECT_EQ(a.representatives[i].metrics.cycles,
                  b.representatives[i].metrics.cycles);
        EXPECT_EQ(a.representatives[i].metrics.l1Misses,
                  b.representatives[i].metrics.l1Misses);
        EXPECT_EQ(a.representatives[i].coreCycles,
                  b.representatives[i].coreCycles);
    }
    EXPECT_EQ(a.estimate.memMissRate, b.estimate.memMissRate);
    EXPECT_EQ(a.estimate.cycles, b.estimate.cycles);
}

TEST(SampledRunner, WarmupClampedAtTraceStart)
{
    auto records = makeTrace(9, 4);
    SampledRunParams params = testParams();
    params.warmupRecords = 100000;   // far more than any prefix
    SampledRun run = runSampled(records, params);
    for (const RepresentativeRun &rep : run.representatives) {
        // Warm-up never reaches before record 0.
        EXPECT_LE(rep.warmupUsed,
                  static_cast<std::size_t>(rep.interval) * kInterval);
    }
}

TEST(SampledRunner, EmptyTraceYieldsEmptyRun)
{
    SampledRun run = runSampled({}, testParams());
    EXPECT_TRUE(run.representatives.empty());
    EXPECT_EQ(run.estimate.recordsTotal, 0u);
    EXPECT_EQ(run.estimate.intervalsTotal, 0u);
}

TEST(SampledRunner, RejectsZeroIntervalSize)
{
    SampledRunParams params = testParams();
    params.intervalRecords = 0;
    EXPECT_THROW(runSampled(makeTrace(1, 1), params), FatalError);
}

} // namespace
} // namespace ccache::sample
