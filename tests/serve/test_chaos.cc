/**
 * @file
 * Tests for the deterministic chaos harness: spec-string parsing and
 * round-tripping, strict validation, and the seeded random schedule
 * generator (DESIGN.md §12).
 */

#include <gtest/gtest.h>

#include "serve/chaos.hh"

namespace ccache::serve {
namespace {

TEST(ChaosSchedule, ParsesSingleCrash)
{
    ChaosSchedule sched;
    std::string err;
    ASSERT_TRUE(
        ChaosSchedule::parse("crash@20000+120000:1", 4, &sched, &err))
        << err;
    ASSERT_EQ(sched.events.size(), 1u);
    const ChaosEvent &ev = sched.events[0];
    EXPECT_EQ(ev.kind, ChaosKind::Crash);
    EXPECT_EQ(ev.shard, 1u);
    EXPECT_EQ(ev.start, 20000u);
    EXPECT_EQ(ev.duration, 120000u);
    EXPECT_EQ(ev.end(), 140000u);
}

TEST(ChaosSchedule, ParsesMagnitudeAndMultipleEvents)
{
    ChaosSchedule sched;
    std::string err;
    ASSERT_TRUE(ChaosSchedule::parse(
        "slow@100+200:2*8;partial@50+60:3*2.5;crash@10+20:0", 4, &sched,
        &err))
        << err;
    ASSERT_EQ(sched.events.size(), 3u);
    // canonicalize() sorts by start time.
    EXPECT_EQ(sched.events[0].kind, ChaosKind::Crash);
    EXPECT_EQ(sched.events[1].kind, ChaosKind::Partial);
    EXPECT_DOUBLE_EQ(sched.events[1].magnitude, 2.5);
    EXPECT_EQ(sched.events[2].kind, ChaosKind::Slow);
    EXPECT_DOUBLE_EQ(sched.events[2].magnitude, 8.0);
}

TEST(ChaosSchedule, SpecRoundTrips)
{
    const std::string spec = "crash@10+20:0;slow@100+200:2*8";
    ChaosSchedule sched;
    ASSERT_TRUE(ChaosSchedule::parse(spec, 4, &sched, nullptr));
    EXPECT_EQ(sched.toSpec(), spec);

    ChaosSchedule again;
    ASSERT_TRUE(ChaosSchedule::parse(sched.toSpec(), 4, &again, nullptr));
    EXPECT_EQ(again.toSpec(), sched.toSpec());
}

TEST(ChaosSchedule, EmptySpecIsEmptySchedule)
{
    ChaosSchedule sched;
    ASSERT_TRUE(ChaosSchedule::parse("", 4, &sched, nullptr));
    EXPECT_TRUE(sched.events.empty());
}

TEST(ChaosSchedule, RejectsMalformedSpecs)
{
    ChaosSchedule sched;
    std::string err;
    EXPECT_FALSE(ChaosSchedule::parse("meteor@0+10:0", 4, &sched, &err));
    EXPECT_NE(err.find("unknown chaos kind"), std::string::npos);
    EXPECT_FALSE(ChaosSchedule::parse("crash@0:1", 4, &sched, &err));
    EXPECT_FALSE(ChaosSchedule::parse("crash@x+10:1", 4, &sched, &err));
    EXPECT_FALSE(ChaosSchedule::parse("crash@0+0:1", 4, &sched, &err));
    EXPECT_NE(err.find("zero duration"), std::string::npos);
    EXPECT_FALSE(ChaosSchedule::parse("crash@0+10:9", 4, &sched, &err));
    EXPECT_NE(err.find("out of range"), std::string::npos);
    EXPECT_FALSE(ChaosSchedule::parse("slow@0+10:1*-3", 4, &sched, &err));
    EXPECT_NE(err.find("magnitude"), std::string::npos);
    EXPECT_FALSE(ChaosSchedule::parse("slow@0+10:1*", 4, &sched, &err));

    // Start, duration and shard are plain decimal digits that fit 64
    // bits: no sign, no space, no silent clamp on overflow.
    const char *badStarts[] = {"crash@-1+100:0",
                               "crash@99999999999999999999+100:0",
                               "crash@ 5000+100:0", "crash@0x10+100:0"};
    for (const char *spec : badStarts) {
        EXPECT_FALSE(ChaosSchedule::parse(spec, 4, &sched, &err)) << spec;
        EXPECT_NE(err.find("bad start time"), std::string::npos) << err;
    }
    EXPECT_FALSE(ChaosSchedule::parse("crash@0+-5:0", 4, &sched, &err));
    EXPECT_NE(err.find("bad duration"), std::string::npos) << err;
    const char *badShards[] = {"crash@0+5:-1", "crash@0+5: 1",
                               "crash@0+5:+1"};
    for (const char *spec : badShards) {
        EXPECT_FALSE(ChaosSchedule::parse(spec, 4, &sched, &err)) << spec;
        EXPECT_NE(err.find("bad shard index"), std::string::npos) << err;
    }
    // end() = start + duration may reach 2^64 - 1 but not wrap.
    EXPECT_TRUE(ChaosSchedule::parse("crash@18446744073709551516+99:0", 4,
                                     &sched, &err));
    EXPECT_EQ(sched.events.at(0).end(), ~Cycles{0});
    const char *wrapping[] = {"crash@18446744073709551516+100:0",
                              "crash@18446744073709551615+1:0"};
    for (const char *spec : wrapping) {
        EXPECT_FALSE(ChaosSchedule::parse(spec, 4, &sched, &err)) << spec;
        EXPECT_NE(err.find("bad duration"), std::string::npos) << err;
    }
    // A storm's magnitude is a finite number above 0.
    const char *badMagnitudes[] = {"slow@5000+400000:1*nan",
                                   "slow@5000+400000:1*inf",
                                   "partial@5000+400000:1*-inf",
                                   "slow@5000+400000:1* 3",
                                   "slow@5000+400000:1*0"};
    for (const char *spec : badMagnitudes) {
        EXPECT_FALSE(ChaosSchedule::parse(spec, 4, &sched, &err)) << spec;
        EXPECT_NE(err.find("bad magnitude"), std::string::npos) << err;
    }
}

TEST(ChaosSchedule, RandomIsSeedDeterministic)
{
    ChaosSchedule a = ChaosSchedule::random(7, 4, 1000000, 8);
    ChaosSchedule b = ChaosSchedule::random(7, 4, 1000000, 8);
    ASSERT_EQ(a.events.size(), 8u);
    EXPECT_EQ(a.toSpec(), b.toSpec());

    ChaosSchedule c = ChaosSchedule::random(8, 4, 1000000, 8);
    EXPECT_NE(a.toSpec(), c.toSpec());
}

TEST(ChaosSchedule, RandomSparesShardZeroAndBoundsWindows)
{
    ChaosSchedule sched = ChaosSchedule::random(123, 4, 500000, 32);
    ASSERT_EQ(sched.events.size(), 32u);
    for (const ChaosEvent &ev : sched.events) {
        EXPECT_GE(ev.shard, 1u);
        EXPECT_LT(ev.shard, 4u);
        EXPECT_LT(ev.start, 500000u);
        EXPECT_GT(ev.duration, 0u);
        EXPECT_GT(ev.magnitude, 0.0);
    }
}

TEST(ChaosSchedule, JsonCarriesMagnitudeOnlyForStorms)
{
    ChaosSchedule sched;
    ASSERT_TRUE(
        ChaosSchedule::parse("crash@0+10:1;slow@5+10:2*3", 4, &sched,
                             nullptr));
    std::string json = sched.toJson().dump();
    EXPECT_NE(json.find("\"slow\""), std::string::npos);
    EXPECT_NE(json.find("\"magnitude\""), std::string::npos);
    // The crash event has no magnitude key: exactly one in the dump.
    EXPECT_EQ(json.find("\"magnitude\""),
              json.rfind("\"magnitude\""));
}

} // namespace
} // namespace ccache::serve
