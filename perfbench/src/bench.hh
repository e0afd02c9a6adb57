/**
 * @file
 * Shared vocabulary of the repository benchmark: the host-time span
 * recorder, the per-iteration result every workload returns, and the
 * workload factory.
 *
 * The benchmark times the simulator from outside: every span wraps a
 * call into one layer's public API (src/<layer>/...), so nothing under
 * src/ carries instrumentation. A workload is one batch job; the driver
 * in main.cc repeats it (set-up + run) for the requested host seconds
 * and reports medians.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/system.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p start. */
inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Nanoseconds between two time points. */
inline double
nanosBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::nano>(b - a).count();
}

/** One recorded host-time interval. Spans nest: @p parent is the index
 *  of the enclosing span, or -1 at the top level. */
struct Span
{
    const char *name;
    Clock::time_point start;
    Clock::time_point end;
    int parent;
    int iteration;
};

/**
 * In-memory host-time span recorder. Disabled, begin()/end() cost one
 * branch and record nothing; enabled, spans accumulate in memory and are
 * written out once, when the run ends.
 */
class Tracer
{
  public:
    /** Scope guard: opens a span on construction, closes it on exit. */
    class Scope
    {
      public:
        Scope(Tracer &tracer, const char *name)
            : tracer_(tracer), index_(tracer.begin(name))
        {
        }
        ~Scope() { tracer_.end(index_); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &tracer_;
        int index_;
    };

    bool enabled() const { return enabled_; }
    void setEnabled(bool on) { enabled_ = on; }
    void setIteration(int iteration) { iteration_ = iteration; }

    Scope span(const char *name) { return Scope(*this, name); }

    /** Open a span; returns its index (-1 when disabled). */
    int begin(const char *name);
    void end(int index);

    const std::vector<Span> &spans() const { return spans_; }

    /** Per iteration: total seconds of the spans named @p name. */
    std::map<int, double> totalByIteration(const std::string &name) const;

    /** Per iteration and layer (the span name up to its first '.'):
     *  the layer's self time, i.e. its spans' durations minus the part
     *  covered by their child spans. */
    std::map<int, std::map<std::string, double>> selfTimeByIteration() const;

    /** Write every span as Chrome trace-event JSON (host microseconds),
     *  which Perfetto and chrome://tracing open. False on I/O failure. */
    bool writeChromeTrace(const std::string &path,
                          const std::string &workload) const;

  private:
    bool enabled_ = false;
    int iteration_ = 0;
    int open_ = -1;
    std::vector<Span> spans_;
};

/**
 * Host-speed probe. On a shared host, other tenants' load can change
 * the host's speed by up to 2x over minutes. The
 * probe is a fixed piece of benchmark-owned work shaped like the
 * simulator's (set-associative tag lookups over 16 MB plus hash-map
 * updates); main.cc runs it around every iteration and rescales the
 * iteration's times by kReferenceS / (probe time), so that the
 * end-to-end times read as seconds on a host where the probe takes
 * kReferenceS. Nothing under src/ runs in the probe, so a faster
 * simulator still shows in full.
 */
class HostProbe
{
  public:
    /** Probe time on the reference host (an idle 4-vCPU x86-64 VM). */
    static constexpr double kReferenceS = 0.025;

    HostProbe();

    /** Run the probe once; returns its host seconds. */
    double run();

  private:
    std::vector<std::uint64_t> tags_;
    std::unordered_map<std::uint64_t, std::uint32_t> pages_;
    std::uint64_t state_ = 0x9e3779b97f4a7c15ULL;
};

/** What one set-up + run of a workload produced. */
struct Iteration
{
    double setupS = 0.0;          ///< building inputs and machines
    double runS = 0.0;            ///< the simulated run, stats dump included
    std::uint64_t events = 0;     ///< L1 accesses + CC block ops, all Systems
    std::uint64_t attempted = 0;  ///< checked operations
    std::uint64_t failed = 0;     ///< operations whose check failed

    /** Canonical text of the simulated outputs (reports, stats dumps);
     *  a host-time-only change must leave it byte-identical. */
    std::string digest;

    /** Per-layer scalars of this iteration (counts, ratios, seconds). */
    std::map<std::string, double> values;

    /** Per-call latency samples in nanoseconds, pooled over iterations. */
    std::map<std::string, std::vector<double>> samples;
};

/** One named workload. Its constructor generates the benchmark's own
 *  inputs from the seed; nothing it does there is timed. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /**
     * One set-up + run. @p first is true for the warm-up iteration,
     * which also runs the once-per-process checks and event counting.
     * @p tracer is enabled on traced iterations, which may also take
     * extra per-layer measurements outside the timed regions.
     */
    virtual Iteration iterate(Tracer &tracer, bool first) = 0;
};

std::unique_ptr<Workload> makeFleetHotspot(std::uint64_t seed);
std::unique_ptr<Workload> makeAppsFig9(std::uint64_t seed);
std::unique_ptr<Workload> makeCcKernels(std::uint64_t seed);
std::unique_ptr<Workload> makeTraceSampled(std::uint64_t seed);

/** Helpers shared by the workloads. @{ */

/** Simulated events of one System: hierarchy L1 accesses plus CC block
 *  ops, from its stats. */
std::uint64_t simulatedEvents(ccache::sim::System &sys);

/** Sum the hierarchy/CC/NoC counters the per-layer metrics report
 *  (hit ratios, block ops, in-place ratio, RISC fallbacks, messages)
 *  into @p values, accumulating over several Systems. Call
 *  finishLayerCounters() once after the last System. */
void addLayerCounters(ccache::sim::System &sys,
                      std::map<std::string, double> &values);
void finishLayerCounters(std::map<std::string, double> &values);

/** The program's end-of-run stats dump (StatRegistry::dumpJson plus
 *  System::totals), spanned as stats.dump. Appends the serialized dump
 *  to @p digest and returns the seconds the program part took (the
 *  serialization is the benchmark's own work and is not counted). */
double dumpStats(Tracer &tracer, ccache::sim::System &sys,
                 std::string &digest);

/** Deterministic per-purpose seed derived from the workload seed. */
std::uint64_t subSeed(std::uint64_t seed, const char *purpose);

/** @} */

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
