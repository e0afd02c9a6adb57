#include "serve/shed_log.hh"

#include "common/logging.hh"

namespace ccache::serve {

ShedLog::ShedLog(const std::vector<TenantQos> &tenants, StatGroup stats)
    : qos_(tenants),
      counts_(tenants.size(),
              std::vector<std::uint64_t>(kNumRejectReasons, 0)),
      stats_(stats)
{
    CC_ASSERT(!tenants.empty(), "shed log needs at least one tenant");
    for (const TenantQos &t : tenants) {
        StatGroup g = stats_.group(t.name);
        tenantCtr_.push_back(
            &g.counter("rejected", "requests shed, all reasons"));
        std::vector<StatCounter *> per_reason;
        for (std::size_t r = 0; r < kNumRejectReasons; ++r)
            per_reason.push_back(&g.counter(
                std::string("rejected.") +
                    toString(static_cast<RejectReason>(r)),
                "requests shed for this reason"));
        reasonCtr_.push_back(std::move(per_reason));
    }
}

void
ShedLog::record(RequestId id, TenantId tenant, RejectReason reason,
                Cycles arrival)
{
    CC_ASSERT(tenant < counts_.size(), "unknown tenant in shed record");
    ++total_;
    ++counts_[tenant][static_cast<std::size_t>(reason)];
    tenantCtr_[tenant]->inc();
    reasonCtr_[tenant][static_cast<std::size_t>(reason)]->inc();
    if (samples_.size() < kMaxSamples)
        samples_.push_back({id, tenant, reason, arrival});
}

std::uint64_t
ShedLog::count(TenantId tenant, RejectReason reason) const
{
    CC_ASSERT(tenant < counts_.size(), "unknown tenant");
    return counts_[tenant][static_cast<std::size_t>(reason)];
}

std::uint64_t
ShedLog::countByReason(RejectReason reason) const
{
    std::uint64_t n = 0;
    for (const auto &per_tenant : counts_)
        n += per_tenant[static_cast<std::size_t>(reason)];
    return n;
}

Json
ShedLog::toJson() const
{
    Json doc = Json::object();
    doc["total"] = total_;
    Json by_reason = Json::object();
    for (std::size_t r = 0; r < kNumRejectReasons; ++r) {
        std::uint64_t n = countByReason(static_cast<RejectReason>(r));
        if (n != 0)
            by_reason[toString(static_cast<RejectReason>(r))] = n;
    }
    doc["by_reason"] = std::move(by_reason);
    Json by_tenant = Json::object();
    for (std::size_t t = 0; t < counts_.size(); ++t) {
        Json reasons = Json::object();
        bool any = false;
        for (std::size_t r = 0; r < kNumRejectReasons; ++r) {
            if (counts_[t][r] == 0)
                continue;
            reasons[toString(static_cast<RejectReason>(r))] = counts_[t][r];
            any = true;
        }
        if (any)
            by_tenant[qos_[t].name] = std::move(reasons);
    }
    doc["by_tenant"] = std::move(by_tenant);
    Json samples = Json::array();
    for (const Sample &s : samples_) {
        Json e = Json::object();
        e["id"] = s.id;
        e["tenant"] = qos_[s.tenant].name;
        e["reason"] = toString(s.reason);
        e["arrival"] = s.arrival;
        samples.push(std::move(e));
    }
    doc["samples"] = std::move(samples);
    return doc;
}

} // namespace ccache::serve
