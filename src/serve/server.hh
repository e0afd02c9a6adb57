/**
 * @file
 * CcServer: the multi-tenant request-serving front end (DESIGN.md §11).
 *
 * Layered on top of sim::System, the server replays an open-loop
 * request stream in simulated time: arrivals are admitted through the
 * bounded RequestQueue (rejections become structured shed-load
 * records), operand buffers are placed by a LocalityAllocator so each
 * request's operands are page-offset co-located (recycled at
 * completion — the allocator free-list churns at request rate), and
 * the BatchScheduler drains the queue in sub-array-parallel waves.
 *
 * Latency accounting is per tenant, in log-bucketed histograms wired
 * into the stats registry (and therefore into every JSON stats
 * export): queueing latency (admission -> dispatch), service latency
 * (dispatch -> completion) and total sojourn. The whole run is a pure
 * function of (SystemConfig, ServerParams, request specs): simulated
 * time only, no host clocks, no thread-dependent state (§8).
 */

#ifndef CCACHE_SERVE_SERVER_HH
#define CCACHE_SERVE_SERVER_HH

#include <memory>
#include <string>
#include <vector>

#include "geometry/locality_allocator.hh"
#include "serve/batch_scheduler.hh"
#include "serve/request_builder.hh"
#include "serve/request_queue.hh"
#include "sim/system.hh"
#include "workload/traffic_gen.hh"

namespace ccache::serve {

/** Base address of the operand heap managed by the LocalityAllocator. */
constexpr Addr kHeapBase = 0x40000000;

/** Server assembly configuration. */
struct ServerParams
{
    QueueParams queue;
    SchedulerParams sched;
    std::vector<TenantQos> tenants = {TenantQos{}};

    /** Operand heap size in bytes. */
    std::size_t heapBytes = 64 << 20;

    /** Rotating locality groups for request placement (bounds the
     *  allocator's group table while keeping co-location). */
    unsigned allocGroups = 32;

    /** CC_FATAL on a configuration no server can run: no tenants,
     *  duplicate tenant names, or a zero queue capacity, wave size,
     *  per-tenant wave cap or allocGroups. */
    void validate() const;
};

/** End-of-run summary (also exported as JSON). */
struct ServeReport
{
    std::uint64_t offered = 0;
    std::uint64_t admitted = 0;
    std::uint64_t served = 0;
    std::uint64_t rejected = 0;
    Cycles elapsed = 0;

    /** Served requests per million cycles. */
    double throughputRpmc = 0.0;

    struct TenantSummary
    {
        std::string name;
        std::uint64_t admitted = 0;
        std::uint64_t served = 0;
        std::uint64_t rejected = 0;
        std::uint64_t p50QueueCycles = 0;
        std::uint64_t p99QueueCycles = 0;
        std::uint64_t p999QueueCycles = 0;
        std::uint64_t p50ServiceCycles = 0;
        std::uint64_t p99ServiceCycles = 0;
        double meanSojournCycles = 0.0;
    };

    std::vector<TenantSummary> tenants;

    /** Structured shed-load record (RequestQueue::rejectionsJson). */
    Json rejections;

    Json toJson() const;
};

class CcServer
{
  public:
    CcServer(sim::System &sys, const ServerParams &params);

    /** Replay @p specs (sorted by arrival) to completion. */
    ServeReport run(const std::vector<workload::RequestSpec> &specs);

    geometry::LocalityAllocator &allocator() { return *alloc_; }

  private:
    sim::System &sys_;
    ServerParams params_;
    std::unique_ptr<geometry::LocalityAllocator> alloc_;
    std::unique_ptr<RequestQueue> queue_;
    std::unique_ptr<BatchScheduler> sched_;

    struct TenantStats
    {
        StatCounter *served;
        StatLogHistogram *queueCycles;
        StatLogHistogram *serviceCycles;
        StatLogHistogram *sojournCycles;
    };

    std::vector<TenantStats> tenantStats_;
    RequestId nextId_ = 0;
};

} // namespace ccache::serve

#endif // CCACHE_SERVE_SERVER_HH
