/**
 * @file
 * Ring interconnect model (Table IV: 3-cycle hop latency, 256-bit links).
 *
 * The ring connects the eight cores (each with its private L1/L2 and its
 * local L3 slice) in the SandyBridge-like floorplan of Figure 1(a).
 * Messages are either control (8 bytes: requests, acks, invalidations) or
 * data (8-byte header + 64-byte block). The model charges per-hop latency
 * and per-flit-hop energy, and tracks link utilization for the bandwidth
 * statistics.
 */

#ifndef CCACHE_NOC_RING_HH
#define CCACHE_NOC_RING_HH

#include <cstdint>

#include "common/event_trace.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "energy/energy_model.hh"

namespace ccache::verify {
class ProgressWatchdog;
} // namespace ccache::verify

namespace ccache::noc {

/** Message classes carried on the ring. */
enum class MsgClass {
    Control,    ///< request / ack / invalidate: one 8-byte flit
    Data,       ///< cache block transfer: header + 64 bytes
};

/** Size in bytes of a message of class @p cls. */
std::size_t messageBytes(MsgClass cls);

/** Ring configuration. */
struct RingParams
{
    unsigned nodes = 8;        ///< ring stops (core + L3 slice per stop)
    Cycles hopLatency = 3;     ///< Table IV
    unsigned linkBytes = 32;   ///< 256-bit links
};

/** Bidirectional ring: traffic takes the shorter direction. */
class Ring
{
  public:
    Ring(const RingParams &params, energy::EnergyModel *energy,
         StatRegistry *stats);

    const RingParams &params() const { return params_; }

    /** Attach (or detach with nullptr) a timeline event sink; each
     *  message becomes one event on its source stop's NoC track. */
    void setTraceSink(EventTrace *trace) { trace_ = trace; }

    /** Count every message against @p watchdog's per-transaction ring
     *  ceiling (nullptr detaches). */
    void setWatchdog(verify::ProgressWatchdog *watchdog)
    {
        watchdog_ = watchdog;
    }

    /** Hops between two stops using the shorter direction. */
    unsigned distance(unsigned src, unsigned dst) const;

    /**
     * Send one message; returns its network latency in cycles and charges
     * NoC energy. Every message crosses at least one ring segment: even
     * a core's local slice sits behind the core's ring interface
     * (SandyBridge floorplan).
     */
    Cycles send(unsigned src, unsigned dst, MsgClass cls);

    /** Total messages and flit-hops moved, for stats. @{ */
    std::uint64_t messages() const { return messages_; }
    std::uint64_t flitHops() const { return flitHops_; }
    /** @} */

  private:
    RingParams params_;
    energy::EnergyModel *energy_;
    StatRegistry *stats_;
    /** Pre-registered counters: send() is called once per coherence hop,
     *  so it must not re-resolve dotted stat names. Null w/o registry. @{ */
    StatCounter *messagesStat_ = nullptr;
    StatCounter *flitHopsStat_ = nullptr;
    /** @} */
    EventTrace *trace_ = nullptr;
    verify::ProgressWatchdog *watchdog_ = nullptr;
    std::uint64_t messages_ = 0;
    std::uint64_t flitHops_ = 0;
};

} // namespace ccache::noc

#endif // CCACHE_NOC_RING_HH
