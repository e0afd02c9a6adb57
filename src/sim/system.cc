#include "sim/system.hh"

#include <algorithm>
#include <cstdlib>

#include "common/bit_util.hh"
#include "common/logging.hh"

namespace ccache::sim {

namespace {

/** $CCACHE_VERIFY_COHERENCE=1 forces the checker on (CI sets it to run
 *  the whole test suite and bench catalog under continuous audit). */
bool
envForcesChecker()
{
    const char *env = std::getenv("CCACHE_VERIFY_COHERENCE");
    return env && env[0] == '1';
}

} // namespace

System::System(const SystemConfig &config)
    : config_(config),
      energy_(std::make_unique<energy::EnergyModel>()),
      hier_(std::make_unique<cache::Hierarchy>(config.hierarchy,
                                               energy_.get(), &stats_)),
      cc_(std::make_unique<cc::CcController>(*hier_, energy_.get(),
                                             &stats_, config.cc)),
      scalar_(std::make_unique<BaselineEngine>(*hier_, energy_.get(),
                                               &stats_, 8)),
      simd_(std::make_unique<BaselineEngine>(*hier_, energy_.get(),
                                             &stats_, 32)),
      ccEngine_(std::make_unique<CcEngine>(*hier_, *cc_, energy_.get(),
                                           &stats_)),
      clocks_(config.hierarchy.cores, 0)
{
    trace_.setClock([this](int core) {
        if (core < 0 || static_cast<std::size_t>(core) >= clocks_.size())
            return elapsed();
        return clocks_[static_cast<std::size_t>(core)];
    });
    hier_->setTraceSink(&trace_);
    cc_->setTraceSink(&trace_);

    if (config.verify.coherenceChecker || envForcesChecker()) {
        checker_ = std::make_unique<verify::CoherenceChecker>(
            *hier_, config.verify.checker);
        hier_->setChecker(checker_.get());
        cc_->setChecker(checker_.get());
    }
    if (config.verify.watchdog) {
        watchdog_ = std::make_unique<verify::ProgressWatchdog>(
            config.verify.watchdogParams);
        watchdog_->setContextProvider([this]() {
            Json ctx = Json::object();
            Json dirs = Json::array();
            for (unsigned s = 0; s < config_.hierarchy.ring.nodes; ++s)
                dirs.push(static_cast<std::uint64_t>(
                    hier_->directory(s).trackedBlocks()));
            ctx["directory_tracked_blocks"] = std::move(dirs);
            ctx["noc_messages"] = hier_->ring().messages();
            ctx["elapsed_cycles"] = elapsed();
            return ctx;
        });
        hier_->setWatchdog(watchdog_.get());
        cc_->setWatchdog(watchdog_.get());
    }
}

void
System::load(Addr addr, const void *data, std::size_t len)
{
    hier_->debugWrite(addr, data, len);
}

std::vector<std::uint8_t>
System::dump(Addr addr, std::size_t len)
{
    std::vector<std::uint8_t> out(len);
    hier_->debugRead(addr, out.data(), len);
    return out;
}

void
System::warm(CacheLevel level, CoreId core, Addr addr, std::size_t len)
{
    // The fills charge energy and stats like any access (benches call
    // resetMetrics() after warming); only the core clocks stay put.
    Addr first = alignDown(addr, kBlockSize);
    Addr last = alignDown(addr + len - 1, kBlockSize);
    for (Addr blk = first; blk <= last; blk += kBlockSize) {
        if (level == CacheLevel::L3) {
            hier_->fetchToLevel(core, blk, CacheLevel::L3, false);
        } else {
            hier_->read(core, blk, nullptr,
                        level == CacheLevel::L1 ? CacheLevel::L1
                                                : CacheLevel::L2);
        }
    }
}

void
System::advance(CoreId core, Cycles cycles)
{
    CC_ASSERT(core < clocks_.size(), "core ", core, " out of range");
    clocks_[core] += cycles;
}

Cycles
System::elapsed() const
{
    Cycles max = 0;
    for (Cycles c : clocks_)
        max = std::max(max, c);
    return max;
}

energy::EnergyTotals
System::totals() const
{
    // Attribute static power to the cores that actually ran, plus their
    // share of the shared uncore (caches + ring).
    unsigned active = 0;
    for (Cycles c : clocks_)
        active += c > 0 ? 1 : 0;
    active = std::max(active, 1u);
    double uncore_share =
        static_cast<double>(active) / static_cast<double>(clocks_.size());
    return energy_->totals(elapsed(), active, uncore_share);
}

void
System::resetMetrics()
{
    std::fill(clocks_.begin(), clocks_.end(), 0);
    stats_.resetAll();
    energy_->reset();
    trace_.clear();
}

} // namespace ccache::sim
