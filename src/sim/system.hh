/**
 * @file
 * Top-level system assembly: the one object benchmarks and applications
 * instantiate. Owns the statistics registry, energy model, coherent
 * hierarchy, CC controller and the three execution engines (scalar
 * "Base", 32-byte SIMD "Base_32", and Compute Cache).
 */

#ifndef CCACHE_SIM_SYSTEM_HH
#define CCACHE_SIM_SYSTEM_HH

#include <memory>
#include <vector>

#include "cache/hierarchy.hh"
#include "cc/cc_controller.hh"
#include "common/event_trace.hh"
#include "sim/engines.hh"
#include "verify/coherence_checker.hh"

namespace ccache::sim {

/** Runtime-verification layer (DESIGN.md §9). */
struct VerifyConfig
{
    /** Install the CoherenceChecker (audits MESI invariants after every
     *  hierarchy transaction and CC instruction). Off by default in
     *  benches; tests turn it on, and $CCACHE_VERIFY_COHERENCE=1 forces
     *  it on for any System (how CI runs the whole suite checked). */
    bool coherenceChecker = false;
    verify::CoherenceCheckerParams checker;
};

/** Aggregate configuration (defaults reproduce Table IV). Timing and
 *  energy are constants of the modules that charge them. */
struct SystemConfig
{
    cache::HierarchyParams hierarchy;
    cc::CcControllerParams cc;
    VerifyConfig verify;
};

/** The assembled machine. */
class System
{
  public:
    explicit System(const SystemConfig &config = SystemConfig{});

    const SystemConfig &config() const { return config_; }

    StatRegistry &stats() { return stats_; }

    /**
     * Timeline event sink, pre-wired into the hierarchy, ring and CC
     * controller. Disabled by default (near-zero overhead: one branch
     * per hook site); call `trace().enable()` to start recording and
     * `trace().writeFile(...)` to emit Chrome trace-event JSON for
     * Perfetto / chrome://tracing.
     */
    EventTrace &trace() { return trace_; }

    energy::EnergyModel &energy() { return *energy_; }
    cache::Hierarchy &hierarchy() { return *hier_; }
    cc::CcController &cc() { return *cc_; }

    /** The installed CoherenceChecker, null when disabled. */
    verify::CoherenceChecker *coherenceChecker() { return checker_.get(); }

    BaselineEngine &scalar() { return *scalar_; }
    BaselineEngine &simd32() { return *simd_; }
    CcEngine &ccEngine() { return *ccEngine_; }

    /** Workload setup (functional back-door, no timing/energy). @{ */
    void load(Addr addr, const void *data, std::size_t len);
    std::vector<std::uint8_t> dump(Addr addr, std::size_t len);
    /** @} */

    /**
     * Warm an address range into a cache level for @p core (benchmark
     * preconditioning, e.g. "all operands are in L3" in Section VI-D).
     * The fills charge cache, NoC and DRAM energy and count in the
     * stats like any access; only the core clocks stay put. Benches
     * call resetMetrics() afterwards to measure from a warm, zeroed
     * machine; serve::buildRequest does not, so a served request's
     * energy and stats include warming its buffers.
     */
    void warm(CacheLevel level, CoreId core, Addr addr, std::size_t len);

    /** Advance a core's local clock by @p cycles. */
    void advance(CoreId core, Cycles cycles);

    Cycles coreCycles(CoreId core) const { return clocks_[core]; }

    /** Wall-clock of the whole run: slowest core. */
    Cycles elapsed() const;

    /** Static+dynamic energy totals at the current elapsed time. */
    energy::EnergyTotals totals() const;

    /** Reset time, stats and energy (not cache/memory contents). */
    void resetMetrics();

  private:
    SystemConfig config_;
    StatRegistry stats_;
    EventTrace trace_;
    std::unique_ptr<energy::EnergyModel> energy_;
    std::unique_ptr<cache::Hierarchy> hier_;
    std::unique_ptr<cc::CcController> cc_;
    std::unique_ptr<verify::CoherenceChecker> checker_;
    std::unique_ptr<BaselineEngine> scalar_;
    std::unique_ptr<BaselineEngine> simd_;
    std::unique_ptr<CcEngine> ccEngine_;
    std::vector<Cycles> clocks_;
};

} // namespace ccache::sim

#endif // CCACHE_SIM_SYSTEM_HH
