#include "serve/request_queue.hh"

#include "common/logging.hh"

namespace ccache::serve {

const char *
toString(RejectReason reason)
{
    switch (reason) {
      case RejectReason::QueueFull: return "queue_full";
      case RejectReason::TenantQueueFull: return "tenant_queue_full";
      case RejectReason::Malformed: return "malformed";
      case RejectReason::DeadlineExpired: return "deadline_expired";
      case RejectReason::BreakerOpen: return "breaker_open";
      case RejectReason::ShardDown: return "shard_down";
      case RejectReason::NoCapacity: return "no_capacity";
      case RejectReason::RetriesExhausted: return "retries_exhausted";
      case RejectReason::PartialResult: return "partial_result";
      case RejectReason::GlobalQueueFull: return "global_queue_full";
      case RejectReason::MigrationDrain: return "migration_drain";
    }
    return "unknown";
}

RequestQueue::RequestQueue(const QueueParams &params,
                           const std::vector<TenantQos> &tenants,
                           StatGroup stats)
    : params_(params), qos_(tenants), pending_(tenants.size()),
      shed_(tenants, stats)
{
    CC_ASSERT(!tenants.empty(), "request queue needs at least one tenant");
    for (const TenantQos &t : tenants) {
        StatGroup g = stats.group(t.name);
        admittedCtr_.push_back(
            &g.counter("admitted", "requests accepted into the queue"));
    }
}

std::optional<RejectReason>
RequestQueue::offer(const Request &req, Cycles now)
{
    (void)now;
    CC_ASSERT(req.tenant < pending_.size(), "unknown tenant");

    std::optional<RejectReason> reason;
    try {
        req.instr.validate();
        for (const cc::CcInstruction &c : req.chunks)
            c.validate();
    } catch (const FatalError &) {
        reason = RejectReason::Malformed;
    }
    if (!reason && size_ >= params_.capacity)
        reason = RejectReason::QueueFull;
    if (!reason && pending_[req.tenant].size() >= qos_[req.tenant].maxPending)
        reason = RejectReason::TenantQueueFull;

    if (reason) {
        shed_.record(req.id, req.tenant, *reason, req.arrival);
        return reason;
    }

    pending_[req.tenant].push_back(req);
    ++size_;
    admittedCtr_[req.tenant]->inc();
    return std::nullopt;
}

Request
RequestQueue::pop(TenantId t)
{
    CC_ASSERT(t < pending_.size() && !pending_[t].empty(),
              "pop from empty tenant queue");
    Request req = std::move(pending_[t].front());
    pending_[t].pop_front();
    --size_;
    return req;
}

bool
RequestQueue::oldest(Cycles *arrival, TenantId *tenant) const
{
    bool found = false;
    for (TenantId t = 0; t < pending_.size(); ++t) {
        if (pending_[t].empty())
            continue;
        const Request &front = pending_[t].front();
        if (!found || front.arrival < *arrival ||
            (front.arrival == *arrival && t < *tenant)) {
            *arrival = front.arrival;
            *tenant = t;
            found = true;
        }
    }
    return found;
}

std::vector<Request>
RequestQueue::pruneIf(const std::function<bool(const Request &)> &pred)
{
    std::vector<Request> removed;
    for (std::deque<Request> &fifo : pending_) {
        for (auto it = fifo.begin(); it != fifo.end();) {
            if (pred(*it)) {
                removed.push_back(std::move(*it));
                it = fifo.erase(it);
                --size_;
            } else {
                ++it;
            }
        }
    }
    return removed;
}

std::optional<Request>
RequestQueue::removeById(RequestId id)
{
    for (std::deque<Request> &fifo : pending_) {
        for (auto it = fifo.begin(); it != fifo.end(); ++it) {
            if (it->id == id) {
                Request req = std::move(*it);
                fifo.erase(it);
                --size_;
                return req;
            }
        }
    }
    return std::nullopt;
}

std::optional<Request>
RequestQueue::removeYoungest(TenantId t)
{
    CC_ASSERT(t < pending_.size(), "unknown tenant");
    std::deque<Request> &fifo = pending_[t];
    if (fifo.empty())
        return std::nullopt;
    Request req = std::move(fifo.back());
    fifo.pop_back();
    --size_;
    return req;
}

} // namespace ccache::serve
