#include "serve/server.hh"

#include <algorithm>
#include <set>

#include "common/logging.hh"

namespace ccache::serve {

Json
ServeReport::toJson() const
{
    Json doc = Json::object();
    doc["offered"] = offered;
    doc["admitted"] = admitted;
    doc["served"] = served;
    doc["rejected"] = rejected;
    doc["elapsed_cycles"] = elapsed;
    doc["throughput_rpmc"] = throughputRpmc;
    Json tens = Json::object();
    for (const TenantSummary &t : tenants) {
        Json e = Json::object();
        e["admitted"] = t.admitted;
        e["served"] = t.served;
        e["rejected"] = t.rejected;
        e["p50_queue_cycles"] = t.p50QueueCycles;
        e["p99_queue_cycles"] = t.p99QueueCycles;
        e["p999_queue_cycles"] = t.p999QueueCycles;
        e["p50_service_cycles"] = t.p50ServiceCycles;
        e["p99_service_cycles"] = t.p99ServiceCycles;
        e["mean_sojourn_cycles"] = t.meanSojournCycles;
        tens[t.name] = std::move(e);
    }
    doc["tenants"] = std::move(tens);
    doc["rejections"] = rejections;
    return doc;
}

void
ServerParams::validate() const
{
    if (tenants.empty())
        CC_FATAL("serving needs at least one tenant");
    std::set<std::string> names;
    for (const TenantQos &t : tenants) {
        if (!names.insert(t.name).second)
            CC_FATAL("tenant names must be unique: ", t.name);
    }
    if (queue.capacity == 0)
        CC_FATAL("queue capacity must be at least 1");
    if (sched.waveSize == 0 || sched.perTenantWaveCap == 0)
        CC_FATAL("wave size and per-tenant wave cap must be at least 1");
    if (allocGroups == 0)
        CC_FATAL("allocGroups must be at least 1");
}

CcServer::CcServer(sim::System &sys, const ServerParams &params)
    : sys_(sys), params_(params)
{
    params_.validate();
    alloc_ = std::make_unique<geometry::LocalityAllocator>(
        kHeapBase, params_.heapBytes);
    StatGroup serve = sys_.stats().group("serve");
    queue_ = std::make_unique<RequestQueue>(params_.queue, params_.tenants,
                                            serve);
    sched_ = std::make_unique<BatchScheduler>(
        sys_, *queue_, params_.tenants, params_.sched, serve);
    for (const TenantQos &t : params_.tenants) {
        StatGroup g = serve.group(t.name);
        tenantStats_.push_back(TenantStats{
            &g.counter("served", "requests completed"),
            &g.logHistogram("queue_cycles",
                            "admission -> dispatch wait per request"),
            &g.logHistogram("service_cycles",
                            "dispatch -> completion per request"),
            &g.logHistogram("sojourn_cycles",
                            "admission -> completion per request"),
        });
    }
}

ServeReport
CcServer::run(const std::vector<workload::RequestSpec> &specs)
{
    ServeReport report;
    report.offered = specs.size();

    RequestBuildParams build;
    build.allocGroups = params_.allocGroups;

    std::size_t next = 0;
    Cycles now = 0;
    while (true) {
        // Admit every arrival up to the current time, in arrival order.
        while (next < specs.size() && specs[next].arrival <= now) {
            const workload::RequestSpec &spec = specs[next];
            RequestId id = nextId_++;
            ++next;
            RejectReason why = RejectReason::NoCapacity;
            std::optional<Request> req =
                buildRequest(sys_, *alloc_, build, spec, id, &why);
            if (!req) {
                // Operand heap exhausted: a structured shed, not a
                // panic (the heap recovers as in-flight waves recycle).
                queue_->recordShed(id, spec.tenant, why, spec.arrival);
                ++report.rejected;
                continue;
            }
            if (auto reason = queue_->offer(*req, now)) {
                (void)reason;   // counted inside the queue
                recycleRequest(*alloc_, *req);
                ++report.rejected;
            } else {
                ++report.admitted;
            }
        }
        if (queue_->empty()) {
            if (next == specs.size())
                break;
            now = specs[next].arrival;   // idle until the next arrival
            continue;
        }

        BatchScheduler::Wave wave = sched_->dispatch(now);
        CC_ASSERT(!wave.requests.empty(), "dispatch made no progress");
        CC_ASSERT(wave.results.size() == wave.requests.size(),
                  "wave result/request mismatch");
        for (std::size_t i = 0; i < wave.requests.size(); ++i) {
            const Request &req = wave.requests[i];
            TenantStats &ts = tenantStats_[req.tenant];
            Cycles queue_wait = now - req.arrival;
            Cycles service = wave.results[i].latency;
            ts.served->inc();
            ts.queueCycles->sample(queue_wait);
            ts.serviceCycles->sample(service);
            ts.sojournCycles->sample(queue_wait + service);
            recycleRequest(*alloc_, req);
            ++report.served;
        }
        now += wave.makespan;
        sys_.advance(0, wave.makespan);
    }

    report.elapsed = now;
    report.throughputRpmc = now
        ? static_cast<double>(report.served) * 1e6 /
              static_cast<double>(now)
        : 0.0;
    report.rejections = queue_->rejectionsJson();

    const StatRegistry &reg = sys_.stats();
    for (std::size_t t = 0; t < params_.tenants.size(); ++t) {
        const std::string &name = params_.tenants[t].name;
        ServeReport::TenantSummary s;
        s.name = name;
        s.admitted = reg.value("serve." + name + ".admitted");
        s.served = reg.value("serve." + name + ".served");
        s.rejected = reg.value("serve." + name + ".rejected");
        const StatLogHistogram *q =
            reg.logHistogramAt("serve." + name + ".queue_cycles");
        const StatLogHistogram *sv =
            reg.logHistogramAt("serve." + name + ".service_cycles");
        const StatLogHistogram *so =
            reg.logHistogramAt("serve." + name + ".sojourn_cycles");
        if (q) {
            s.p50QueueCycles = q->quantile(0.50);
            s.p99QueueCycles = q->quantile(0.99);
            s.p999QueueCycles = q->quantile(0.999);
        }
        if (sv) {
            s.p50ServiceCycles = sv->quantile(0.50);
            s.p99ServiceCycles = sv->quantile(0.99);
        }
        if (so)
            s.meanSojournCycles = so->mean();
        report.tenants.push_back(std::move(s));
    }
    return report;
}

} // namespace ccache::serve
