/**
 * @file
 * Structured shed-load recording (DESIGN.md §11, §12).
 *
 * Every request the serving layer refuses — at queue admission, at the
 * router's deadline check, behind an open circuit breaker, or because
 * the operand heap is exhausted — is recorded here with its reason and
 * owning tenant: per-(tenant, reason) counts, per-reason stats counters
 * wired into the registry (and therefore every JSON stats export), and
 * a bounded sample list of concrete victims. The RequestQueue embeds
 * one log for admission rejections; the ShardRouter keeps a fleet-level
 * log for reliability-pipeline sheds. Shed load is first-class output,
 * never a silent drop.
 */

#ifndef CCACHE_SERVE_SHED_LOG_HH
#define CCACHE_SERVE_SHED_LOG_HH

#include <vector>

#include "common/json.hh"
#include "common/stats.hh"
#include "serve/request.hh"

namespace ccache::serve {

class ShedLog
{
  public:
    /** Counters are pre-registered for every (tenant, reason) pair so
     *  the stats dump shape never depends on which sheds occurred. */
    ShedLog(const std::vector<TenantQos> &tenants, StatGroup stats);

    /** Record one shed request. */
    void record(RequestId id, TenantId tenant, RejectReason reason,
                Cycles arrival);

    /** Total sheds (all tenants, all reasons). */
    std::uint64_t total() const { return total_; }

    /** Sheds of @p tenant for @p reason. */
    std::uint64_t count(TenantId tenant, RejectReason reason) const;

    /** Sheds for @p reason across all tenants. */
    std::uint64_t countByReason(RejectReason reason) const;

    /**
     * Structured shed-load report:
     *
     *     { "total": N,
     *       "by_reason": { "<reason>": count, ... },
     *       "by_tenant": { "<tenant>": { "<reason>": count, ... } },
     *       "samples": [ { "id", "tenant", "reason", "arrival" }, ... ] }
     */
    Json toJson() const;

  private:
    struct Sample
    {
        RequestId id;
        TenantId tenant;
        RejectReason reason;
        Cycles arrival;
    };

    /** Samples kept for the JSON export (counters are always
     *  complete; samples give the first few concrete victims). */
    static constexpr std::size_t kMaxSamples = 32;

    std::vector<TenantQos> qos_;
    std::uint64_t total_ = 0;
    /** [tenant][reason] -> count (dense; reasons are a small enum). */
    std::vector<std::vector<std::uint64_t>> counts_;
    std::vector<Sample> samples_;

    StatGroup stats_;
    /** [tenant] -> aggregate; [tenant][reason] -> per-reason. @{ */
    std::vector<StatCounter *> tenantCtr_;
    std::vector<std::vector<StatCounter *>> reasonCtr_;
    /** @} */
};

} // namespace ccache::serve

#endif // CCACHE_SERVE_SHED_LOG_HH
