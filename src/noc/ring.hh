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

namespace ccache::noc {

/** Message classes carried on the ring. */
enum class MsgClass {
    Control,    ///< request / ack / invalidate: one 8-byte flit
    Data,       ///< cache block transfer: header + 64 bytes
};

/** Size in bytes of a message of class @p cls. */
std::size_t messageBytes(MsgClass cls);

/** Bidirectional ring: traffic takes the shorter direction. */
class Ring
{
  public:
    /** Table IV: 3-cycle hops over 256-bit (32-byte) links. @{ */
    static constexpr Cycles kHopLatency = 3;
    static constexpr unsigned kLinkBytes = 32;
    /** @} */
    static_assert(kLinkBytes > 0, "serialization divides by the width");

    /** Table IV: eight ring stops, each a core and its L3 slice. */
    static constexpr unsigned kNodes = 8;
    static_assert(kNodes > 0, "distance() takes stops modulo kNodes");

    Ring(energy::EnergyModel *energy, StatRegistry *stats);

    /** Attach (or detach with nullptr) a timeline event sink; each
     *  message becomes one event on its source stop's NoC track. */
    void setTraceSink(EventTrace *trace) { trace_ = trace; }

    /** Hops between two stops using the shorter direction. */
    unsigned distance(unsigned src, unsigned dst) const;

    /**
     * Send one message; returns its network latency in cycles and charges
     * NoC energy. Every message crosses at least one ring segment: even
     * a core's local slice sits behind the core's ring interface
     * (SandyBridge floorplan).
     */
    Cycles send(unsigned src, unsigned dst, MsgClass cls);

    /** Flit-hops moved so far, with or without a stats registry. */
    std::uint64_t flitHops() const { return flitHops_; }

  private:
    energy::EnergyModel *energy_;
    StatRegistry *stats_;
    /** Pre-registered counters: send() is called once per coherence hop,
     *  so it must not re-resolve dotted stat names. Null w/o registry. @{ */
    StatCounter *messagesStat_ = nullptr;
    StatCounter *flitHopsStat_ = nullptr;
    /** @} */
    EventTrace *trace_ = nullptr;
    std::uint64_t flitHops_ = 0;
};

} // namespace ccache::noc

#endif // CCACHE_NOC_RING_HH
