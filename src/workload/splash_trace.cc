#include "workload/splash_trace.hh"

#include <algorithm>
#include <set>

#include "common/logging.hh"

namespace ccache::workload {

const char *
toString(SplashApp app)
{
    switch (app) {
      case SplashApp::Fmm: return "fmm";
      case SplashApp::Radix: return "radix";
      case SplashApp::Cholesky: return "cholesky";
      case SplashApp::Barnes: return "barnes";
      case SplashApp::Raytrace: return "raytrace";
      case SplashApp::Radiosity: return "radiosity";
    }
    return "?";
}

std::vector<SplashApp>
allSplashApps()
{
    return {SplashApp::Fmm, SplashApp::Radix, SplashApp::Cholesky,
            SplashApp::Barnes, SplashApp::Raytrace, SplashApp::Radiosity};
}

SplashProfile
profileFor(SplashApp app)
{
    // Shapes follow the published SPLASH-2 characterization (Woo et al.):
    // radix is a write-heavy streaming sort (large dirty footprint per
    // interval); raytrace/radiosity write little and reuse pages heavily;
    // fmm/barnes/cholesky sit in between.
    switch (app) {
      case SplashApp::Fmm:
        return {1024, 0.22, 0.80, 0.30, 1.5};
      case SplashApp::Radix:
        return {2048, 0.45, 0.35, 0.36, 3.5};
      case SplashApp::Cholesky:
        return {1536, 0.30, 0.60, 0.32, 2.2};
      case SplashApp::Barnes:
        return {1024, 0.25, 0.70, 0.31, 1.8};
      case SplashApp::Raytrace:
        return {1280, 0.12, 0.85, 0.33, 0.8};
      case SplashApp::Radiosity:
        return {1152, 0.15, 0.82, 0.30, 1.0};
    }
    CC_PANIC("unknown app");
}

SplashTrace::SplashTrace(SplashApp app, Addr heap_base, std::uint64_t seed)
    : app_(app), profile_(profileFor(app)), heapBase_(heap_base),
      rng_(seed ^ (static_cast<std::uint64_t>(app) << 32))
{
}

IntervalActivity
SplashTrace::nextInterval(std::uint64_t instructions)
{
    IntervalActivity act;
    act.memAccesses = static_cast<std::uint64_t>(
        static_cast<double>(instructions) * profile_.memOpsPerInstr);

    // Distinct first-write pages this interval: the calibrated COW rate,
    // scaled to the interval length, with bounded jitter (+/- 50%).
    double mean = profile_.dirtyPagesPer100k *
        static_cast<double>(instructions) / 100000.0;
    double jitter = 0.5 + rng_.uniform();
    auto target = static_cast<std::size_t>(mean * jitter + 0.5);
    target = std::min(target, profile_.residentPages);

    std::set<std::size_t> dirtied;
    constexpr std::size_t kWindow = 32;
    while (dirtied.size() < target) {
        std::size_t page;
        if (!recentPages_.empty() && rng_.chance(profile_.pageLocality)) {
            // Reuse of a recently-hot page: often already checkpointed,
            // so it only sometimes contributes a new dirty page.
            page = recentPages_[rng_.below(recentPages_.size())];
        } else {
            page = rng_.below(profile_.residentPages);
        }
        recentPages_.push_back(page);
        if (recentPages_.size() > kWindow)
            recentPages_.erase(recentPages_.begin());
        dirtied.insert(page);
    }

    act.dirtiedPages.reserve(dirtied.size());
    for (std::size_t p : dirtied)
        act.dirtiedPages.push_back(heapBase_ + p * kPageSize);
    return act;
}

} // namespace ccache::workload
