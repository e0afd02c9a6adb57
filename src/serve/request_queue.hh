/**
 * @file
 * Bounded multi-tenant request queue with admission control
 * (DESIGN.md §11).
 *
 * One FIFO per tenant under a global capacity bound. offer() is the
 * single admission point: it enforces the global bound (backpressure
 * toward the client) and the per-tenant pending cap (isolation between
 * tenants), and records every rejection in the embedded ShedLog —
 * per-(tenant, reason) stats counters plus a bounded sample list
 * exported as JSON — so shed load is first-class output, never a
 * silent drop. The reliability pipeline (DESIGN.md §12) records its
 * own sheds (deadlines, breaker brownout, heap exhaustion) through
 * recordShed() so one structured report covers the whole queue.
 */

#ifndef CCACHE_SERVE_REQUEST_QUEUE_HH
#define CCACHE_SERVE_REQUEST_QUEUE_HH

#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "common/json.hh"
#include "common/stats.hh"
#include "serve/request.hh"
#include "serve/shed_log.hh"

namespace ccache::serve {

/** Queue sizing. */
struct QueueParams
{
    /** Global pending-request capacity across all tenants. */
    std::size_t capacity = 256;
};

class RequestQueue
{
  public:
    RequestQueue(const QueueParams &params,
                 const std::vector<TenantQos> &tenants, StatGroup stats);

    /**
     * Admit @p req at time @p now, or reject with a reason. On
     * rejection the request is NOT stored; the caller still owns its
     * buffers and must recycle them.
     */
    std::optional<RejectReason> offer(const Request &req, Cycles now);

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    std::size_t tenantCount() const { return pending_.size(); }

    /** The tenant's FIFO of pending requests (front = oldest). */
    const std::deque<Request> &pending(TenantId t) const
    {
        return pending_[t];
    }

    /** Pop the oldest pending request of tenant @p t. */
    Request pop(TenantId t);

    /** Arrival time of the oldest pending request across all tenants
     *  (and that tenant's id via @p tenant); false when empty. */
    bool oldest(Cycles *arrival, TenantId *tenant) const;

    /**
     * Remove and return every pending request matching @p pred, walking
     * tenants in index order and each FIFO front-to-back (deterministic
     * order). The caller owns the removed requests' buffers; removal
     * records nothing — pair with recordShed() when the removal is a
     * shed (deadline expiry) rather than a transfer (hedge cancel).
     */
    std::vector<Request> pruneIf(
        const std::function<bool(const Request &)> &pred);

    /** Remove the pending request with id @p id, if present; the
     *  removed request is returned for buffer recycling. */
    std::optional<Request> removeById(RequestId id);

    /** Remove tenant @p t's youngest pending request (FIFO back), if
     *  any — the global-backpressure eviction victim (DESIGN.md §15):
     *  evicting the most recent admission wastes the least sunk queue
     *  time. Removal records nothing; pair with recordShed(). */
    std::optional<Request> removeYoungest(TenantId t);

    /** Record a shed that happened outside offer() — deadline expiry,
     *  breaker brownout, heap exhaustion, retry exhaustion. */
    void recordShed(RequestId id, TenantId tenant, RejectReason reason,
                    Cycles arrival)
    {
        shed_.record(id, tenant, reason, arrival);
    }

    /** Total recorded sheds (admission + external, all reasons). */
    std::uint64_t rejected() const { return shed_.total(); }

    /** Structured shed-load report (ShedLog::toJson). */
    Json rejectionsJson() const { return shed_.toJson(); }

  private:
    QueueParams params_;
    std::vector<TenantQos> qos_;
    std::vector<std::deque<Request>> pending_;
    std::size_t size_ = 0;

    ShedLog shed_;
    std::vector<StatCounter *> admittedCtr_;
};

} // namespace ccache::serve

#endif // CCACHE_SERVE_REQUEST_QUEUE_HH
