/**
 * @file
 * Timeline event sink emitting Chrome trace-event JSON.
 *
 * Components (cache hierarchy, NoC, CC controller, fault ladder) record
 * timestamped events into an EventTrace; the sink serializes them in the
 * Chrome trace-event format, loadable in Perfetto (https://ui.perfetto.dev)
 * or chrome://tracing. One simulated cycle maps to one trace microsecond.
 *
 * Overhead contract (DESIGN.md §7): the sink is disabled by default and
 * every instrumentation site guards with `if (trace && trace->enabled())`,
 * so a disabled run performs no allocation, no formatting and no RNG or
 * stats perturbation — outputs are bit-identical to a build without the
 * instrumentation.
 *
 * Timestamps come from a clock callback installed by the owning System
 * (per-core simulated clocks). Because callers advance core clocks only
 * between top-level operations, events inside one operation share a
 * coarse start time; the sink keeps a per-track cursor and lays such
 * events end-to-end so tracks remain readable and non-overlapping.
 */

#ifndef CCACHE_COMMON_EVENT_TRACE_HH
#define CCACHE_COMMON_EVENT_TRACE_HH

#include <functional>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/types.hh"

namespace ccache {

/** Trace-event categories (the "cat" field; filterable in Perfetto). */
namespace tracecat {
inline constexpr const char *kCache = "cache";
inline constexpr const char *kCc = "cc";
inline constexpr const char *kNoc = "noc";
inline constexpr const char *kFault = "fault";
inline constexpr const char *kServe = "serve";
} // namespace tracecat

/** Collects simulation events and serializes Chrome trace-event JSON. */
class EventTrace
{
  public:
    /** Clock callback: simulated cycles for a core; kGlobalTrack asks
     *  for the global (max-over-cores) clock. */
    using ClockFn = std::function<Cycles(int core)>;

    static constexpr int kGlobalTrack = -1;

    /** NoC events live on per-stop tracks offset by this base so they do
     *  not serialize against the core tracks (track = base + stop). */
    static constexpr int kNocTrackBase = 100;

    /** Serving-layer waves and admission events (DESIGN.md §11). */
    static constexpr int kServeTrack = 200;

    bool enabled() const { return enabled_; }
    void enable(bool on = true) { enabled_ = on; }

    void setClock(ClockFn fn) { clock_ = std::move(fn); }

    /** Current simulated time of @p track (0 without a clock). */
    Cycles now(int track) const
    {
        return clock_ ? clock_(track) : 0;
    }

    /**
     * Record a duration ("complete", ph=X) event on @p track starting at
     * @p start for @p dur cycles. If @p start is behind the track's
     * cursor the event is shifted to the cursor (see file header).
     */
    void complete(const char *cat, std::string name, int track,
                  Cycles start, Cycles dur, Json args = Json());

    /** Record an instant (ph=i) event at max(@p ts, track cursor). */
    void instant(const char *cat, std::string name, int track, Cycles ts,
                 Json args = Json());

    std::size_t size() const { return events_.size(); }

    /** Drop all recorded events and reset the track cursors. */
    void clear();

    /** The full trace document: {"traceEvents": [...], ...}. */
    Json toJson() const;

    /** toJson() serialized (compact — Perfetto does not need pretty). */
    std::string dumpChromeJson() const;

    /** Write the trace to @p path; false (with a warn) on I/O failure. */
    bool writeFile(const std::string &path) const;

  private:
    struct Event
    {
        std::string name;
        const char *cat;
        char ph;
        Cycles ts;
        Cycles dur;
        int track;
        Json args;
    };

    Cycles &cursor(int track);

    bool enabled_ = false;
    ClockFn clock_;
    std::vector<Event> events_;
    std::vector<Cycles> cursors_;   ///< index = track + 1 (global at 0)
};

} // namespace ccache

#endif // CCACHE_COMMON_EVENT_TRACE_HH
