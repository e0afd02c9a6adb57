#include "noc/ring.hh"

#include <algorithm>

#include "common/bit_util.hh"
#include "common/logging.hh"

namespace ccache::noc {

std::size_t
messageBytes(MsgClass cls)
{
    return cls == MsgClass::Data ? 8 + kBlockSize : 8;
}

Ring::Ring(energy::EnergyModel *energy, StatRegistry *stats)
    : energy_(energy), stats_(stats)
{
    if (stats_) {
        messagesStat_ = &stats_->counter("noc.messages");
        flitHopsStat_ = &stats_->counter("noc.flit_hops");
    }
}

unsigned
Ring::distance(unsigned src, unsigned dst) const
{
    CC_ASSERT(src < kNodes && dst < kNodes,
              "ring stop out of range: ", src, " -> ", dst);
    unsigned fwd = (dst + kNodes - src) % kNodes;
    unsigned bwd = kNodes - fwd;
    return std::min(fwd, bwd == kNodes ? 0 : bwd);
}

Cycles
Ring::send(unsigned src, unsigned dst, MsgClass cls)
{
    unsigned hops = std::max(distance(src, dst), 1u);
    std::size_t bytes = messageBytes(cls);

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
    Cycles serialization = divCeil(bytes, kLinkBytes);
    Cycles latency = kHopLatency * hops + serialization;

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
