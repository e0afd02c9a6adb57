#include "noc/ring.hh"

#include <algorithm>

#include "common/bit_util.hh"
#include "common/logging.hh"
#include "verify/watchdog.hh"

namespace ccache::noc {

std::size_t
messageBytes(MsgClass cls)
{
    switch (cls) {
      case MsgClass::Control: return 8;
      case MsgClass::Data: return 8 + kBlockSize;
    }
    return 8;
}

Ring::Ring(const RingParams &params, energy::EnergyModel *energy,
           StatRegistry *stats)
    : params_(params), energy_(energy), stats_(stats)
{
    if (params_.nodes == 0)
        CC_FATAL("ring needs at least one node");
    if (params_.linkBytes == 0)
        CC_FATAL("ring links need a nonzero width");
    if (stats_) {
        messagesStat_ = &stats_->counter("noc.messages");
        flitHopsStat_ = &stats_->counter("noc.flit_hops");
    }
}

unsigned
Ring::distance(unsigned src, unsigned dst) const
{
    CC_ASSERT(src < params_.nodes && dst < params_.nodes,
              "ring stop out of range: ", src, " -> ", dst);
    unsigned fwd = (dst + params_.nodes - src) % params_.nodes;
    unsigned bwd = params_.nodes - fwd;
    return std::min(fwd, bwd == params_.nodes ? 0 : bwd);
}

Cycles
Ring::send(unsigned src, unsigned dst, MsgClass cls)
{
    unsigned hops = std::max(distance(src, dst), 1u);
    std::size_t bytes = messageBytes(cls);
    ++messages_;
    if (watchdog_)
        watchdog_->noteRingMessage(src, dst);

    std::uint64_t flits = divCeil(bytes, 8);
    flitHops_ += flits * hops;

    if (energy_)
        energy_->chargeNoc(bytes, hops);
    if (messagesStat_) {
        messagesStat_->inc();
        flitHopsStat_->inc(flits * hops);
    }

    // Wormhole-style: head latency plus serialization of the payload over
    // the 256-bit link.
    Cycles serialization = divCeil(bytes, params_.linkBytes);
    Cycles latency = params_.hopLatency * hops + serialization;

    if (trace_ && trace_->enabled()) {
        Json args = Json::object();
        args["src"] = src;
        args["dst"] = dst;
        args["hops"] = hops;
        args["bytes"] = static_cast<std::uint64_t>(bytes);
        int track = EventTrace::kNocTrackBase + static_cast<int>(src);
        trace_->complete(tracecat::kNoc,
                         cls == MsgClass::Data ? "noc.data" : "noc.ctl",
                         track, trace_->now(static_cast<int>(src)), latency,
                         std::move(args));
    }
    return latency;
}

} // namespace ccache::noc
