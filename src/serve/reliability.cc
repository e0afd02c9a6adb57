#include "serve/reliability.hh"

#include <algorithm>

#include "common/rng.hh"

namespace ccache::serve {

Cycles
retryDelay(std::uint64_t seed, RequestId id, unsigned attempt)
{
    constexpr Cycles kBase = 2000;
    constexpr Cycles kCap = 64000;
    // The doubling reaches the cap at the sixth attempt.
    unsigned shift = std::min(attempt > 0 ? attempt - 1 : 0, 6u);
    Cycles d = std::min(kCap, kBase << shift);

    // Pure hash -> uniform fraction in [0, 1); no RNG stream.
    std::uint64_t h = mix64(mix64(seed ^ id) ^ (0x5e7261ULL + attempt));
    double frac = static_cast<double>(h >> 11) * 0x1.0p-53;
    return static_cast<Cycles>(static_cast<double>(d) * (0.75 + 0.5 * frac));
}

CircuitBreaker::State
CircuitBreaker::state(Cycles now) const
{
    if (state_ == State::Open && now >= openedAt_ + kOpenCooloff)
        return State::HalfOpen;
    return state_;
}

void
CircuitBreaker::onSuccess(Cycles now)
{
    switch (state(now)) {
      case State::HalfOpen:
        if (++probeStreak_ >= kProbeSuccesses) {
            state_ = State::Closed;
            failureStreak_ = 0;
            probeStreak_ = 0;
        } else {
            // Stay half-open; materialize the lazy transition so a
            // later failure re-opens from HalfOpen, not stale Open.
            state_ = State::HalfOpen;
        }
        break;
      case State::Closed:
        failureStreak_ = 0;
        break;
      case State::Open:
        break;   // stale success from before the trip: ignore
    }
}

void
CircuitBreaker::onFailure(Cycles now)
{
    switch (state(now)) {
      case State::HalfOpen:
        // Materialize the lazy Open -> HalfOpen transition first so
        // the re-trip below is counted as a real one.
        state_ = State::HalfOpen;
        trip(now);   // failed probe: full cooloff again
        break;
      case State::Closed:
        if (++failureStreak_ >= kFailureThreshold)
            trip(now);
        break;
      case State::Open:
        break;
    }
}

void
CircuitBreaker::trip(Cycles now)
{
    if (state_ != State::Open)
        ++trips_;
    state_ = State::Open;
    openedAt_ = now;
    failureStreak_ = 0;
    probeStreak_ = 0;
}

} // namespace ccache::serve
