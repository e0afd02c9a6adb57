#include "serve/batch_scheduler.hh"

#include <algorithm>

#include "common/logging.hh"

namespace ccache::serve {

namespace {

/** DRR credit granted per round, multiplied by the tenant weight
 *  (bytes): a weight-1 tenant earns one average request per round. */
constexpr std::size_t kDrrQuantumBytes = 4096;

} // namespace

const char *
toString(ServePolicy policy)
{
    switch (policy) {
      case ServePolicy::FifoSerial: return "fifo";
      case ServePolicy::Batch: return "batch";
    }
    return "unknown";
}

bool
parsePolicy(const std::string &text, ServePolicy *out)
{
    if (text == "fifo") {
        *out = ServePolicy::FifoSerial;
        return true;
    }
    if (text == "batch") {
        *out = ServePolicy::Batch;
        return true;
    }
    return false;
}

BatchScheduler::BatchScheduler(sim::System &sys, RequestQueue &queue,
                               const std::vector<TenantQos> &tenants,
                               const SchedulerParams &params,
                               StatGroup stats)
    : sys_(sys), queue_(queue), params_(params),
      deficit_(tenants.size(), 0)
{
    CC_ASSERT(params_.waveSize >= 1, "wave size must be at least 1");
    for (const TenantQos &t : tenants) {
        names_.push_back(t.name);
        weight_.push_back(std::max(1u, t.weight));
    }
    waves_ = &stats.counter("waves", "scheduling rounds dispatched");
    chunkedRequests_ = &stats.counter(
        "chunked_requests", "multi-chunk requests batched into waves");
    starvationPicks_ = &stats.counter(
        "starvation_picks", "requests promoted by the starvation guard");
    occupancy_ = &stats.histogram("wave_occupancy", 1.0,
                                  std::max(16u, params_.waveSize),
                                  "requests coalesced per wave");
    makespanHist_ = &stats.logHistogram(
        "wave_makespan_cycles", "overlapped completion time per wave");
}

std::vector<Request>
BatchScheduler::selectFifo()
{
    std::vector<Request> picked;
    Cycles arrival = 0;
    TenantId tenant = 0;
    if (queue_.oldest(&arrival, &tenant))
        picked.push_back(queue_.pop(tenant));
    return picked;
}

std::vector<Request>
BatchScheduler::selectBatch(Cycles now)
{
    std::vector<Request> picked;

    // Starvation guard: an over-age oldest request preempts DRR order
    // and opens the wave.
    Cycles arrival = 0;
    TenantId starving = 0;
    std::size_t slots = 0;   ///< instruction slots consumed (1 + chunks)
    if (queue_.oldest(&arrival, &starving) && now >= arrival &&
        now - arrival > kStarvationAgeCycles) {
        starvationPicks_->inc();
        picked.push_back(queue_.pop(starving));
        slots += picked.back().slots();
    }

    // Byte-weighted deficit round-robin over tenants with pending work.
    const std::size_t tenants = queue_.tenantCount();
    for (TenantId t = 0; t < tenants; ++t) {
        if (queue_.pending(t).empty())
            deficit_[t] = 0;   // standard DRR: idle tenants bank nothing
        else
            deficit_[t] += kDrrQuantumBytes * weight_[t];
    }

    std::vector<unsigned> inWave(tenants, 0);
    for (const Request &r : picked)
        ++inWave[r.tenant];

    // A tenant can still contribute to this wave: backlogged and under
    // its per-wave request cap.
    auto eligible = [&](TenantId t) {
        return !queue_.pending(t).empty() &&
               inWave[t] < params_.perTenantWaveCap;
    };

    while (slots < params_.waveSize) {
        bool progress = false;
        for (std::size_t step = 0;
             step < tenants && slots < params_.waveSize; ++step) {
            TenantId t = (rrCursor_ + step) % tenants;
            if (!eligible(t))
                continue;
            const Request &front = queue_.pending(t).front();
            if (deficit_[t] < front.bytes)
                continue;
            deficit_[t] -= front.bytes;
            picked.push_back(queue_.pop(t));
            slots += picked.back().slots();
            ++inWave[t];
            progress = true;
        }
        if (!progress) {
            // Nobody had credit left. While the wave has room and some
            // tenant is still eligible, grant another (weight-
            // proportional) quantum to every eligible tenant rather
            // than dispatch a half-empty wave — DRR paces the *share*
            // between contending tenants, not the machine's occupancy.
            bool topped = false;
            for (TenantId t = 0; t < tenants; ++t) {
                if (eligible(t)) {
                    deficit_[t] += kDrrQuantumBytes * weight_[t];
                    topped = true;
                }
            }
            if (!topped)
                break;
        }
    }
    rrCursor_ = tenants ? (rrCursor_ + 1) % tenants : 0;

    // Safety net (unreachable in practice): always make progress.
    if (picked.empty()) {
        Cycles a = 0;
        TenantId t = 0;
        if (queue_.oldest(&a, &t))
            picked.push_back(queue_.pop(t));
    }
    return picked;
}

BatchScheduler::Wave
BatchScheduler::dispatch(Cycles now)
{
    Wave wave;
    if (queue_.empty())
        return wave;

    wave.requests = params_.policy == ServePolicy::Batch ? selectBatch(now)
                                                         : selectFifo();
    if (wave.requests.empty())
        return wave;

    cc::CcController &ctrl = sys_.cc();
    constexpr CoreId kServeCore = 0;

    // Tag the watchdog with the wave's provenance: a stall thrown from
    // inside this wave's instruction stream then names the requests and
    // tenants it was executing, not just the raw transaction (§12).
    struct ServeContextGuard
    {
        verify::ProgressWatchdog *dog;
        ~ServeContextGuard()
        {
            if (dog)
                dog->clearServeContext();
        }
    } guard{sys_.watchdog()};
    if (guard.dog) {
        Json ctx = Json::object();
        ctx["wave_at_cycle"] = now;
        Json reqs = Json::array();
        for (const Request &r : wave.requests) {
            Json e = Json::object();
            e["request"] = r.id;
            e["tenant"] = r.tenant < names_.size()
                ? names_[r.tenant] : std::to_string(r.tenant);
            reqs.push(std::move(e));
        }
        ctx["requests"] = std::move(reqs);
        guard.dog->setServeContext(std::move(ctx));
    }

    if (params_.policy == ServePolicy::Batch) {
        // One overlapped stream for the whole wave: each request
        // contributes 1 + chunks instruction slots; its chunks are
        // independent (disjoint 64-byte blocks), so they overlap with
        // each other and with every other request in the wave.
        std::vector<cc::CcInstruction> instrs;
        for (const Request &r : wave.requests) {
            instrs.push_back(r.instr);
            instrs.insert(instrs.end(), r.chunks.begin(), r.chunks.end());
            if (!r.chunks.empty())
                chunkedRequests_->inc();
        }
        std::vector<cc::CcExecResult> per_instr =
            ctrl.executeStream(kServeCore, instrs, &wave.makespan);
        // Fold each request's chunk results back into one record. In
        // stream mode a result's latency is its completion offset in
        // the shared schedule, so the fold keeps the max.
        std::size_t at = 0;
        for (const Request &r : wave.requests) {
            cc::CcExecResult folded = per_instr[at++];
            for (std::size_t c = 0; c < r.chunks.size(); ++c) {
                const cc::CcExecResult &cr = per_instr[at++];
                folded.latency = std::max(folded.latency, cr.latency);
                folded.blockOps += cr.blockOps;
                folded.inPlaceOps += cr.inPlaceOps;
                folded.nearPlaceOps += cr.nearPlaceOps;
                folded.result |= cr.result;
            }
            wave.results.push_back(folded);
        }
    } else {
        // Serial-issue baseline: one request per round, every chunk
        // through execute() in isolation.
        Request &req = wave.requests.front();
        cc::CcExecResult folded = ctrl.execute(kServeCore, req.instr);
        for (const cc::CcInstruction &chunk : req.chunks) {
            cc::CcExecResult r = ctrl.execute(kServeCore, chunk);
            folded.latency += r.latency;
            folded.blockOps += r.blockOps;
            folded.inPlaceOps += r.inPlaceOps;
            folded.nearPlaceOps += r.nearPlaceOps;
            folded.result |= r.result;
        }
        wave.makespan = folded.latency;
        wave.results.push_back(folded);
    }

    waves_->inc();
    occupancy_->sample(static_cast<double>(wave.requests.size()));
    makespanHist_->sample(wave.makespan);

    EventTrace &trace = sys_.trace();
    if (trace.enabled()) {
        Json args = Json::object();
        args["requests"] = wave.requests.size();
        args["policy"] = toString(params_.policy);
        trace.complete(tracecat::kServe, "serve.wave",
                       EventTrace::kServeTrack, now, wave.makespan,
                       std::move(args));
    }
    return wave;
}

} // namespace ccache::serve
