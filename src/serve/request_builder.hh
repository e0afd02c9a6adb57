/**
 * @file
 * Request placement: turn one workload::RequestSpec into a fully-placed
 * Request on a concrete sim::System (DESIGN.md §11, §12).
 *
 * Extracted from CcServer so the sharded router can re-place the same
 * spec on any shard: operand buffers come from that shard's
 * LocalityAllocator (co-located by rotating group), the instruction
 * list is chunked to the ISA limits, and the buffers are pre-warmed
 * into L3, so service latency measures compute and on-chip traffic,
 * not DRAM fills. Heap exhaustion is a structured outcome
 * (RejectReason::NoCapacity), never a panic: a partially-built request
 * returns its buffers and the caller sheds the request.
 *
 * For golden-verified runs the builder also fills the source operands
 * with bytes drawn from hash(patternSeed, request id) — the same bytes
 * on every shard the request lands on — so a host-side reference model
 * can check every completed request bit-for-bit (goldenVerifyRequest).
 */

#ifndef CCACHE_SERVE_REQUEST_BUILDER_HH
#define CCACHE_SERVE_REQUEST_BUILDER_HH

#include <optional>

#include "geometry/locality_allocator.hh"
#include "serve/request.hh"
#include "sim/system.hh"
#include "workload/traffic_gen.hh"

namespace ccache::serve {

/** Placement knobs shared by CcServer and ShardRouter. */
struct RequestBuildParams
{
    /** Rotating locality groups for request placement (bounds the
     *  allocator's group table while keeping co-location). */
    unsigned allocGroups = 32;

    /** Fill source operands with seeded bytes for golden verification
     *  (hash(patternSeed, id) — shard-independent). @{ */
    bool fillPattern = false;
    std::uint64_t patternSeed = 0;
    /** @} */
};

/**
 * Place @p spec as request @p id on @p sys. Returns std::nullopt (and
 * sets @p why_not to RejectReason::NoCapacity) when the allocator
 * cannot hold the operands; any partial allocation is rolled back.
 */
std::optional<Request> buildRequest(sim::System &sys,
                                    geometry::LocalityAllocator &alloc,
                                    const RequestBuildParams &params,
                                    const workload::RequestSpec &spec,
                                    RequestId id, RejectReason *why_not);

/** Return a request's buffers to the allocator. */
void recycleRequest(geometry::LocalityAllocator &alloc, const Request &req);

/**
 * Golden verification of one completed request (requires fillPattern):
 * re-read the operand buffers through the hierarchy's coherent debug
 * view and check the destination bytes (CC-RW ops) or the folded
 * result mask (@p result_mask, CC-R ops) against a naive host-side
 * reference. Returns true when the request's effect is bit-exact.
 */
bool goldenVerifyRequest(sim::System &sys, const Request &req,
                         std::uint64_t result_mask);

} // namespace ccache::serve

#endif // CCACHE_SERVE_REQUEST_BUILDER_HH
