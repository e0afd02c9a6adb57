/**
 * @file
 * Per-request reliability primitives of the sharded serving front end
 * (DESIGN.md §12): deterministic retry backoff and a per-shard circuit
 * breaker.
 *
 * Both primitives live in simulated time, and their timing values are
 * constants. retryDelay() derives its jitter from a SplitMix64 hash of
 * (seed, request id, attempt) — no RNG stream is consumed, so the retry
 * schedule of a request is identical wherever and whenever it is
 * computed (the §8 determinism contract extends to failure handling).
 * CircuitBreaker is a plain three-state machine (Closed -> Open on a
 * failure streak, Open -> HalfOpen after a cooloff, HalfOpen -> Closed
 * on probe successes / -> Open on a probe failure) advanced only by the
 * caller's explicit simulated-time observations.
 */

#ifndef CCACHE_SERVE_RELIABILITY_HH
#define CCACHE_SERVE_RELIABILITY_HH

#include <cstdint>

#include "common/types.hh"
#include "serve/request.hh"

namespace ccache::serve {

/** Retry knobs. */
struct RetryParams
{
    /** Total dispatch attempts per request (1 = no retries). */
    unsigned maxAttempts = 3;

    /** Seed folded into the jitter hash. */
    std::uint64_t seed = 1;
};

/**
 * Delay in cycles before retry attempt @p attempt (1-based: the first
 * retry is attempt 1) of request @p id: 2000 << (attempt - 1) cycles,
 * capped at 64000, scaled by a hash-drawn factor in [0.75, 1.25].
 * Pure: same (seed, id, attempt) -> same delay.
 */
Cycles retryDelay(std::uint64_t seed, RequestId id, unsigned attempt);

/**
 * Per-shard circuit breaker. The router consults state(now) before
 * dispatching to a shard and reports every request outcome through
 * onSuccess / onFailure; an Open breaker browns the shard out (hi-QoS
 * traffic reroutes, the rest sheds with RejectReason::BreakerOpen).
 */
class CircuitBreaker
{
  public:
    enum class State { Closed, Open, HalfOpen };

    /** Consecutive request failures that trip Closed -> Open. */
    static constexpr unsigned kFailureThreshold = 4;

    /** Simulated time spent Open before the breaker half-opens and
     *  admits probe traffic. */
    static constexpr Cycles kOpenCooloff = 20000;

    /** Consecutive half-open probe successes that close the breaker. */
    static constexpr unsigned kProbeSuccesses = 2;

    /** Current state, applying the Open -> HalfOpen cooloff lazily. */
    State state(Cycles now) const;

    /** True when the shard may be dispatched at @p now: Closed, or
     *  HalfOpen (probe traffic). */
    bool allowDispatch(Cycles now) const
    {
        return state(now) != State::Open;
    }

    /** Record one request outcome observed at @p now. @{ */
    void onSuccess(Cycles now);
    void onFailure(Cycles now);
    /** @} */

    /** Force-open (shard crash): failures need not accumulate. */
    void trip(Cycles now);

    /** Cycle at which an Open breaker half-opens (meaningful only
     *  while state() is Open) — the router's next wake-up candidate
     *  for a shard with queued work behind an open breaker. */
    Cycles halfOpenAt() const { return openedAt_ + kOpenCooloff; }

    /** Lifetime trip count (Closed/HalfOpen -> Open transitions). */
    std::uint64_t trips() const { return trips_; }

  private:
    State state_ = State::Closed;
    Cycles openedAt_ = 0;
    unsigned failureStreak_ = 0;
    unsigned probeStreak_ = 0;
    std::uint64_t trips_ = 0;
};

} // namespace ccache::serve

#endif // CCACHE_SERVE_RELIABILITY_HH
