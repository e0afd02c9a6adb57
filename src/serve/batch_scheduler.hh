/**
 * @file
 * CC-op batch scheduler (DESIGN.md §11).
 *
 * Each scheduling round drains the request queue into one wave of
 * independent CC instructions and issues it through
 * CcController::executeStream, so the requests of a wave share the
 * command bus, the peak-power slots and the sub-array partition
 * schedule instead of serializing end-to-end — the §IV-E concurrency
 * the paper's throughput comes from. Requests whose operands are not
 * co-located still join the wave; the controller's own placement logic
 * degrades them to the near-place unit per block op. Requests needing
 * more than one ISA vector contribute one instruction slot per chunk
 * and overlap inside the wave like any other instructions.
 *
 * Tenant arbitration is byte-weighted deficit round-robin with a
 * starvation guard: when the oldest pending request's age exceeds
 * kStarvationAgeCycles it preempts the round-robin order outright, so
 * a heavy tenant can never park a light one indefinitely.
 *
 * The FifoSerial policy is the baseline the batching claim is measured
 * against: strict global arrival order, one request at a time, every
 * instruction issued through CcController::execute in isolation.
 */

#ifndef CCACHE_SERVE_BATCH_SCHEDULER_HH
#define CCACHE_SERVE_BATCH_SCHEDULER_HH

#include <vector>

#include "common/stats.hh"
#include "serve/request_queue.hh"
#include "sim/system.hh"

namespace ccache::serve {

/** Wave-composition policy. */
enum class ServePolicy {
    FifoSerial,  ///< arrival order, one op at a time (baseline)
    Batch,       ///< DRR-arbitrated sub-array-parallel waves
};

const char *toString(ServePolicy policy);

/** Parse "fifo" / "batch"; returns false on anything else. */
bool parsePolicy(const std::string &text, ServePolicy *out);

struct SchedulerParams
{
    ServePolicy policy = ServePolicy::Batch;

    /** Max instruction slots coalesced into one wave (a chunked
     *  request consumes one slot per chunk). */
    unsigned waveSize = 16;

    /** Per-tenant cap within one wave (QoS in-flight cap). */
    unsigned perTenantWaveCap = 8;
};

/** Pending age beyond which a request preempts DRR order. */
constexpr Cycles kStarvationAgeCycles = 200000;

class BatchScheduler
{
  public:
    BatchScheduler(sim::System &sys, RequestQueue &queue,
                   const std::vector<TenantQos> &tenants,
                   const SchedulerParams &params, StatGroup stats);

    /** One dispatched wave: the requests, their per-request results
     *  (same order, chunk results folded) and the wave's overlapped
     *  makespan. */
    struct Wave
    {
        std::vector<Request> requests;
        std::vector<cc::CcExecResult> results;
        Cycles makespan = 0;
    };

    /** Select and execute the next wave at time @p now. Returns an
     *  empty wave when the queue is empty. */
    Wave dispatch(Cycles now);

  private:
    /** Wave composition under the Batch policy. */
    std::vector<Request> selectBatch(Cycles now);

    /** The oldest request overall (FifoSerial order). */
    std::vector<Request> selectFifo();

    sim::System &sys_;
    RequestQueue &queue_;
    SchedulerParams params_;

    std::vector<std::string> names_;
    std::vector<unsigned> weight_;
    std::vector<std::size_t> deficit_;
    TenantId rrCursor_ = 0;

    StatCounter *waves_;
    StatCounter *chunkedRequests_;
    StatCounter *starvationPicks_;
    StatHistogram *occupancy_;
    StatLogHistogram *makespanHist_;
};

} // namespace ccache::serve

#endif // CCACHE_SERVE_BATCH_SCHEDULER_HH
