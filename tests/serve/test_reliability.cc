/**
 * @file
 * Tests for the reliability primitives of the sharded serving front
 * end: the deterministic retry-delay schedule and the per-shard
 * circuit breaker state machine (DESIGN.md §12).
 */

#include <gtest/gtest.h>

#include "serve/reliability.hh"

namespace ccache::serve {
namespace {

TEST(RetryDelay, PureFunctionOfInputs)
{
    bool seedMatters = false;
    for (RequestId id = 0; id < 64; ++id) {
        for (unsigned attempt = 1; attempt <= 6; ++attempt) {
            EXPECT_EQ(retryDelay(42, id, attempt),
                      retryDelay(42, id, attempt));
            seedMatters = seedMatters || retryDelay(42, id, attempt) !=
                                             retryDelay(43, id, attempt);
        }
    }
    EXPECT_TRUE(seedMatters);
}

TEST(RetryDelay, ExponentialWithinJitterBand)
{
    // Retry k waits 2000 << (k-1) cycles, capped at 64000, scaled into
    // [0.75, 1.25]; the band's floor keeps every delay >= 1500 cycles.
    for (RequestId id = 0; id < 32; ++id) {
        for (unsigned attempt = 1; attempt <= 8; ++attempt) {
            Cycles nominal =
                std::min<Cycles>(64000, Cycles{2000} << (attempt - 1));
            Cycles d = retryDelay(1, id, attempt);
            EXPECT_GE(d, nominal * 3 / 4)
                << "id " << id << " attempt " << attempt;
            EXPECT_LE(d, nominal * 5 / 4)
                << "id " << id << " attempt " << attempt;
        }
    }
}

TEST(RetryDelay, SaturatesAtCapForHugeAttempts)
{
    // Attempt numbers past the shift width must not wrap around.
    for (unsigned attempt : {6u, 40u, 64u, 200u}) {
        Cycles d = retryDelay(1, 7, attempt);
        EXPECT_GE(d, 48000u) << "attempt " << attempt;
        EXPECT_LE(d, 80000u) << "attempt " << attempt;
    }
}

TEST(RetryDelay, JitterDecorrelatesRequests)
{
    // Not all first-retry delays may collide: the jitter hash must
    // spread distinct request ids across the band.
    bool differs = false;
    Cycles first = retryDelay(1, 0, 1);
    for (RequestId id = 1; id < 16 && !differs; ++id)
        differs = retryDelay(1, id, 1) != first;
    EXPECT_TRUE(differs);
}

TEST(CircuitBreaker, TripsOnFailureStreak)
{
    static_assert(CircuitBreaker::kFailureThreshold == 4);
    CircuitBreaker breaker;

    EXPECT_EQ(breaker.state(0), CircuitBreaker::State::Closed);
    for (Cycles t : {10, 20, 30})
        breaker.onFailure(t);
    EXPECT_EQ(breaker.state(30), CircuitBreaker::State::Closed);
    // A success resets the streak.
    breaker.onSuccess(40);
    for (Cycles t : {50, 60, 70})
        breaker.onFailure(t);
    EXPECT_EQ(breaker.state(70), CircuitBreaker::State::Closed);
    breaker.onFailure(80);
    EXPECT_EQ(breaker.state(80), CircuitBreaker::State::Open);
    EXPECT_FALSE(breaker.allowDispatch(80));
    EXPECT_EQ(breaker.trips(), 1u);
}

TEST(CircuitBreaker, HalfOpensAfterCooloffAndCloses)
{
    static_assert(CircuitBreaker::kOpenCooloff == 20000);
    static_assert(CircuitBreaker::kProbeSuccesses == 2);
    CircuitBreaker breaker;

    for (unsigned i = 0; i < CircuitBreaker::kFailureThreshold; ++i)
        breaker.onFailure(100);
    EXPECT_EQ(breaker.state(100), CircuitBreaker::State::Open);
    EXPECT_EQ(breaker.halfOpenAt(), 20100u);
    EXPECT_FALSE(breaker.allowDispatch(20099));
    EXPECT_EQ(breaker.state(20100), CircuitBreaker::State::HalfOpen);
    EXPECT_TRUE(breaker.allowDispatch(20100));

    // One clean probe is not enough; the second closes it.
    breaker.onSuccess(20200);
    EXPECT_EQ(breaker.state(20200), CircuitBreaker::State::HalfOpen);
    breaker.onSuccess(20300);
    EXPECT_EQ(breaker.state(20300), CircuitBreaker::State::Closed);
}

TEST(CircuitBreaker, ProbeFailureReopens)
{
    CircuitBreaker breaker;

    for (unsigned i = 0; i < CircuitBreaker::kFailureThreshold; ++i)
        breaker.onFailure(0);
    EXPECT_EQ(breaker.state(20000), CircuitBreaker::State::HalfOpen);
    breaker.onFailure(20100);
    EXPECT_EQ(breaker.state(20100), CircuitBreaker::State::Open);
    EXPECT_EQ(breaker.trips(), 2u);
    // The cooloff restarts from the re-trip.
    EXPECT_EQ(breaker.state(40050), CircuitBreaker::State::Open);
    EXPECT_EQ(breaker.state(40100), CircuitBreaker::State::HalfOpen);
}

TEST(CircuitBreaker, ForcedTripIgnoresThreshold)
{
    CircuitBreaker breaker;

    breaker.trip(500);
    EXPECT_EQ(breaker.state(500), CircuitBreaker::State::Open);
    EXPECT_EQ(breaker.trips(), 1u);
    EXPECT_EQ(breaker.halfOpenAt(), 500 + CircuitBreaker::kOpenCooloff);
}

} // namespace
} // namespace ccache::serve
