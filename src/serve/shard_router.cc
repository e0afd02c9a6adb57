#include "serve/shard_router.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.hh"
#include "common/rng.hh"

namespace ccache::serve {

namespace {

constexpr Cycles kNever = std::numeric_limits<Cycles>::max();

/** Consistent-hash ring geometry. @{ */
constexpr unsigned kVnodesPerShard = 16;
constexpr std::uint64_t kRingSeed = 0x5eedULL;
/** @} */

/** Brownout split: tenants with weight >= this floor reroute (and may
 *  hedge); lower tenants shed when their home shard is dark. */
constexpr unsigned kBrownoutWeightFloor = 2;

/** Chaos storm intensity: fault rates applied at magnitude 1 (the event
 *  magnitude scales them, clamped to sane ceilings). @{ */
constexpr double kSlowMarginFailBase = 0.02;
constexpr double kPartialStuckAtBase = 0.004;
/** @} */

/** EWMA smoothing for per-shard queue depth (per rebalance tick). */
constexpr double kEwmaAlpha = 0.3;

} // namespace

Json
FleetReport::toJson() const
{
    Json doc = Json::object();
    doc["offered"] = offered;
    doc["served"] = served;
    doc["shed"] = shed;
    doc["availability"] = availability;
    doc["retries"] = retries;
    doc["reroutes"] = reroutes;
    doc["hedges_launched"] = hedgesLaunched;
    doc["hedge_wins"] = hedgeWins;
    doc["hedge_cancelled"] = hedgeCancelled;
    doc["hedge_wasted"] = hedgeWasted;
    doc["breaker_trips"] = breakerTrips;
    doc["golden_checked"] = goldenChecked;
    doc["golden_mismatch"] = goldenMismatch;
    doc["elapsed_cycles"] = elapsed;
    doc["fanout_parents"] = fanoutParents;
    doc["fanout_legs"] = fanoutLegs;
    doc["fanout_partial"] = fanoutPartial;
    doc["fanout_discarded"] = fanoutDiscarded;
    doc["migrations"] = migrations;
    doc["migration_dual_dispatch"] = migrationDualDispatch;
    doc["migration_transplants"] = migrationTransplants;
    doc["global_evictions"] = globalEvictions;
    doc["global_sheds"] = globalSheds;

    Json ph = Json::array();
    for (const PhaseSummary &p : phases) {
        Json e = Json::object();
        e["start"] = p.start;
        e["end"] = p.end;
        e["offered"] = p.offered;
        e["served"] = p.served;
        e["shed"] = p.shed;
        e["availability"] = p.availability;
        ph.push(std::move(e));
    }
    doc["phases"] = std::move(ph);

    Json sh = Json::array();
    for (const ShardSummary &s : shards) {
        Json e = Json::object();
        e["index"] = s.index;
        e["served"] = s.served;
        e["failed"] = s.failed;
        e["waves"] = s.waves;
        e["down_cycles"] = s.downCycles;
        e["breaker_trips"] = s.breakerTrips;
        e["p50_service_cycles"] = s.p50ServiceCycles;
        e["p99_service_cycles"] = s.p99ServiceCycles;
        sh.push(std::move(e));
    }
    doc["shards"] = std::move(sh);

    Json tens = Json::object();
    for (const TenantSummary &t : tenants) {
        Json e = Json::object();
        e["served"] = t.served;
        e["shed"] = t.shed;
        e["p50_sojourn_cycles"] = t.p50SojournCycles;
        e["p99_sojourn_cycles"] = t.p99SojournCycles;
        e["p999_sojourn_cycles"] = t.p999SojournCycles;
        tens[t.name] = std::move(e);
    }
    doc["tenants"] = std::move(tens);
    doc["rejections"] = rejections;
    doc["chaos"] = chaos;
    return doc;
}

ShardRouter::ShardRouter(const sim::SystemConfig &sys_config,
                         const ServerParams &serve_params,
                         const RouterParams &router_params)
    : serve_(serve_params), params_(router_params)
{
    serve_.validate();
    if (params_.shards == 0)
        CC_FATAL("router needs at least one shard");
    if (params_.retry.maxAttempts == 0)
        CC_FATAL("retry.maxAttempts must be at least 1");
    if (!std::is_sorted(params_.phaseBoundaries.begin(),
                        params_.phaseBoundaries.end()))
        CC_FATAL("phase boundaries must be sorted");
    auto positive = [](double v) { return std::isfinite(v) && v > 0.0; };
    if (params_.rebalancePeriod != 0 && !(positive(params_.hotspotRatio) &&
                                          positive(params_.hotspotMinLoad)))
        CC_FATAL("hotspotRatio and hotspotMinLoad must be finite and "
                 "positive when rebalancing");

    StatGroup fleet = fleetStats_.group("fleet");
    fleetShed_ = std::make_unique<ShedLog>(serve_.tenants,
                                           fleet.group("sheds"));
    fleetSojourn_ = &fleet.logHistogram(
        "sojourn_cycles", "offered arrival -> commit, fleet-wide");
    for (const TenantQos &t : serve_.tenants) {
        StatGroup g = fleet.group(t.name);
        tenantServed_.push_back(&g.counter("served", "commits"));
        tenantSojourn_.push_back(&g.logHistogram(
            "sojourn_cycles", "offered arrival -> commit"));
    }

    for (unsigned s = 0; s < params_.shards; ++s) {
        Shard sh;
        sh.sys = std::make_unique<sim::System>(sys_config);
        sh.alloc = std::make_unique<geometry::LocalityAllocator>(
            kHeapBase, serve_.heapBytes);
        StatGroup g = sh.sys->stats().group("serve");
        sh.queue = std::make_unique<RequestQueue>(serve_.queue,
                                                  serve_.tenants, g);
        sh.sched = std::make_unique<BatchScheduler>(
            *sh.sys, *sh.queue, serve_.tenants, serve_.sched, g);
        sh.baseFaults = sh.sys->cc().mutableFaultInjector().params();

        StatGroup sg = fleetStats_.group("shard." + std::to_string(s));
        sh.servedCtr = &sg.counter("served", "requests committed here");
        sh.failedCtr = &sg.counter("failed",
                                   "requests failed here (crash/timeout)");
        sh.wavesCtr = &sg.counter("waves", "waves dispatched");
        sh.downCyclesCtr = &sg.counter("down_cycles",
                                       "simulated cycles spent crashed");
        sh.serviceHist = &sg.logHistogram("service_cycles",
                                          "per-request service latency");
        shards_.push_back(std::move(sh));
    }

    // Consistent-hash ring: kVnodesPerShard points per shard, sorted.
    for (unsigned s = 0; s < params_.shards; ++s) {
        for (unsigned v = 0; v < kVnodesPerShard; ++v) {
            std::uint64_t point = mix64(
                mix64(kRingSeed ^ (s + 1)) ^
                (0x9e3779b97f4a7c15ULL * (v + 1)));
            ring_.emplace_back(point, s);
        }
    }
    std::sort(ring_.begin(), ring_.end());

    // Per-tenant failover order: distinct shards met on the clockwise
    // successor walk from the tenant's hash point (home first).
    for (const TenantQos &t : serve_.tenants) {
        std::uint64_t key = deriveSeed(kRingSeed, t.name);
        auto it = std::lower_bound(
            ring_.begin(), ring_.end(),
            std::make_pair(key, 0u),
            [](const auto &a, const auto &b) { return a.first < b.first; });
        std::vector<unsigned> order;
        std::vector<bool> seen(params_.shards, false);
        for (std::size_t i = 0;
             i < ring_.size() && order.size() < params_.shards; ++i) {
            if (it == ring_.end())
                it = ring_.begin();
            if (!seen[it->second]) {
                seen[it->second] = true;
                order.push_back(it->second);
            }
            ++it;
        }
        order_.push_back(std::move(order));
    }

    ewma_.assign(params_.shards, 0.0);
}

ShardRouter::~ShardRouter() = default;

bool
ShardRouter::hiQos(TenantId t) const
{
    return serve_.tenants[t].weight >= kBrownoutWeightFloor;
}

std::optional<unsigned>
ShardRouter::routeShard(TenantId t, Cycles now, int avoid,
                        RejectReason *why, std::size_t startOffset,
                        bool fullSpan) const
{
    const std::vector<unsigned> &ord = order_[t];
    // Brownout policy: low-QoS tenants only ever use their home shard;
    // when it is dark they shed, so rerouted capacity goes to high-QoS
    // tenants first. Fan-out legs span the whole order regardless of
    // QoS — a multi-shard request is multi-shard by construction.
    const std::size_t span = (fullSpan || hiQos(t)) ? ord.size() : 1;
    bool saw_breaker = false;
    for (std::size_t i = 0; i < span; ++i) {
        unsigned s = ord[(startOffset + i) % ord.size()];
        if (static_cast<int>(s) == avoid)
            continue;
        const Shard &sh = shards_[s];
        if (!sh.up)
            continue;
        if (!sh.breaker.allowDispatch(now)) {
            saw_breaker = true;
            continue;
        }
        return s;
    }
    if (why) {
        *why = saw_breaker ? RejectReason::BreakerOpen
                           : RejectReason::ShardDown;
    }
    return std::nullopt;
}

bool
ShardRouter::placeCopy(Track &tr, unsigned s, Cycles now, bool hedge)
{
    Shard &sh = shards_[s];
    if (!hedge) {
        ++tr.attempts;
        tr.primaryShard = s;
    }

    RequestBuildParams build;
    build.allocGroups = serve_.allocGroups;
    build.fillPattern = params_.verifyGolden;
    // Fold the Zipf content key into the operand pattern: hot keys
    // carry hot data, and the golden check (which re-reads the placed
    // bytes) keeps working wherever the request is re-placed.
    build.patternSeed = tr.spec.key != 0
        ? mix64(params_.patternSeed ^ mix64(tr.spec.key))
        : params_.patternSeed;

    RejectReason why = RejectReason::NoCapacity;
    std::optional<Request> req =
        buildRequest(*sh.sys, *sh.alloc, build, tr.spec, tr.id, &why);
    if (!req) {
        if (!hedge)
            failCopy(tr, now, static_cast<int>(s), why);
        return false;
    }
    if (std::optional<RejectReason> reason = sh.queue->offer(*req, now)) {
        recycleRequest(*sh.alloc, *req);
        if (!hedge)
            failCopy(tr, now, static_cast<int>(s), *reason);
        return false;
    }
    ++tr.inFlight;
    return true;
}

void
ShardRouter::failCopy(Track &tr, Cycles now, int shard, RejectReason reason)
{
    if (tr.done)
        return;
    if (tr.inFlight > 0)
        return;   // a sibling copy is still alive; let it decide
    if (tr.attempts >= params_.retry.maxAttempts) {
        // Deadline and drain-window sheds keep their reason: a rebuilt
        // copy would fail the same policy again.
        bool terminal = reason == RejectReason::DeadlineExpired ||
                        reason == RejectReason::MigrationDrain;
        shedTrack(tr, now,
                  terminal ? reason : RejectReason::RetriesExhausted);
        return;
    }
    Cycles delay = retryDelay(params_.retry.seed, tr.id, tr.attempts);
    retries_.push(Timer{now + delay, tr.id, shard});
    ++report_.retries;
}

void
ShardRouter::shedTrack(Track &tr, Cycles now, RejectReason reason)
{
    if (tr.done)
        return;
    tr.done = true;
    if (tr.parent != kNoParent) {
        // A leg's terminal failure rolls up to the fan-in barrier; the
        // parent's partial_result record is the structured shed.
        legFailed(tr.parent, now);
        return;
    }
    ++report_.shed;
    if (!report_.phases.empty())
        ++report_.phases[phaseOf(tr.spec.arrival)].shed;
    fleetShed_->record(tr.id, tr.spec.tenant, reason, tr.spec.arrival);
}

unsigned
ShardRouter::cancelQueuedCopies(RequestId id)
{
    unsigned removed = 0;
    for (unsigned o = 0; o < shards_.size(); ++o) {
        if (std::optional<Request> twin =
                shards_[o].queue->removeById(id)) {
            recycleRequest(*shards_[o].alloc, *twin);
            ++removed;
        }
    }
    return removed;
}

void
ShardRouter::commitCopy(Track &tr, unsigned s, const Request &req,
                        const cc::CcExecResult &result, Cycles now)
{
    Shard &sh = shards_[s];
    if (params_.verifyGolden) {
        ++report_.goldenChecked;
        if (!goldenVerifyRequest(*sh.sys, req, result.result))
            ++report_.goldenMismatch;
    }
    recycleRequest(*sh.alloc, req);

    tr.done = true;
    sh.servedCtr->inc();
    sh.serviceHist->sample(result.latency);
    if (tr.hedged && s != tr.primaryShard)
        ++report_.hedgeWins;

    // First commit wins: cancel any still-queued sibling copy. An
    // executing sibling is discarded (hedge_wasted) at its completion.
    if (tr.inFlight > 0) {
        unsigned cancelled = cancelQueuedCopies(tr.id);
        tr.inFlight -= cancelled;
        report_.hedgeCancelled += cancelled;
    }

    if (tr.parent != kNoParent) {
        // A leg's commit advances the fan-in barrier; fleet-level
        // served/sojourn accounting happens once, at the parent.
        legCommitted(tr.parent, now);
        return;
    }
    countServed(tr.spec, now);
}

void
ShardRouter::countServed(const workload::RequestSpec &spec, Cycles now)
{
    ++report_.served;
    if (!report_.phases.empty())
        ++report_.phases[phaseOf(spec.arrival)].served;
    Cycles sojourn = now > spec.arrival ? now - spec.arrival : 0;
    fleetSojourn_->sample(sojourn);
    tenantServed_[spec.tenant]->inc();
    tenantSojourn_[spec.tenant]->sample(sojourn);
}

void
ShardRouter::spawnFanout(Track &parent, Cycles now)
{
    const workload::RequestSpec &spec = parent.spec;
    unsigned legs = std::min<unsigned>(spec.fanout, shardCount());
    Fanout &fan = fanouts_.emplace(parent.id, Fanout{}).first->second;
    fan.legs = legs;
    ++report_.fanoutParents;

    // Split the payload evenly (rounded up to whole blocks); vary the
    // content key per leg so each leg carries its own slice of data.
    std::size_t per = (spec.bytes + legs - 1) / legs;
    per = std::max<std::size_t>(
        kBlockSize, (per + kBlockSize - 1) / kBlockSize * kBlockSize);

    for (unsigned l = 0; l < legs; ++l) {
        if (parent.done)
            break;   // an earlier leg already degraded the barrier
        RequestId lid = nextId_++;
        workload::RequestSpec ls = spec;
        ls.fanout = 1;
        ls.bytes = per;
        if (spec.key != 0) {
            std::uint64_t k = mix64(spec.key ^ (l + 1));
            ls.key = k != 0 ? k : 1;
        }
        Track &leg =
            tracks_
                .emplace(lid, Track{ls, lid, 0, 0, 0, false, false,
                                    parent.id})
                .first->second;
        fanouts_.at(parent.id).legIds.push_back(lid);
        ++report_.fanoutLegs;

        RejectReason why = RejectReason::ShardDown;
        std::optional<unsigned> s =
            routeShard(spec.tenant, now, -1, &why, l, true);
        if (!s) {
            shedTrack(leg, now, why);
            continue;
        }
        if (!admitGlobal(leg, now))
            continue;
        if (placeCopy(leg, *s, now, false) && params_.hedgeAge != 0 &&
            hiQos(spec.tenant)) {
            hedges_.push(Timer{now + params_.hedgeAge, lid, -1});
        }
    }
}

void
ShardRouter::legCommitted(RequestId parentId, Cycles now)
{
    Fanout &fan = fanouts_.at(parentId);
    Track &parent = tracks_.at(parentId);
    if (parent.done)
        return;   // barrier already resolved (defensive)
    ++fan.committed;
    if (fan.committed < fan.legs)
        return;

    // Fan-in: every leg committed (and golden-verified when enabled);
    // the parent serves with sojourn measured to the last leg.
    parent.done = true;
    countServed(parent.spec, now);
}

void
ShardRouter::legFailed(RequestId parentId, Cycles now)
{
    Track &parent = tracks_.at(parentId);
    if (parent.done)
        return;
    ++report_.fanoutPartial;
    shedTrack(parent, now, RejectReason::PartialResult);

    // The barrier is dead: cancel the surviving legs' queued copies;
    // executing copies are discarded at their wave completion.
    for (RequestId lid : fanouts_.at(parentId).legIds) {
        Track &leg = tracks_.at(lid);
        if (leg.done)
            continue;
        leg.done = true;
        unsigned cancelled = cancelQueuedCopies(lid);
        leg.inFlight -= cancelled;
        report_.fanoutDiscarded += cancelled;
    }
}

void
ShardRouter::rebalanceTick(Cycles now)
{
    // EWMA of instantaneous load: queued requests plus the executing
    // wave's occupancy.
    for (unsigned s = 0; s < shards_.size(); ++s) {
        const Shard &sh = shards_[s];
        double load = static_cast<double>(sh.queue->size());
        if (sh.busy)
            load += static_cast<double>(sh.wave.requests.size());
        ewma_[s] = kEwmaAlpha * load + (1.0 - kEwmaAlpha) * ewma_[s];
    }
    if (migration_.active || now < cooldownUntil_)
        return;

    int hot = -1;
    int cold = -1;
    for (unsigned s = 0; s < shards_.size(); ++s) {
        if (!shards_[s].up)
            continue;
        if (hot < 0 || ewma_[s] > ewma_[hot])
            hot = static_cast<int>(s);
        if (cold < 0 || ewma_[s] < ewma_[cold])
            cold = static_cast<int>(s);
    }
    if (hot < 0 || cold < 0 || hot == cold)
        return;
    if (ewma_[hot] < params_.hotspotMinLoad)
        return;
    if (ewma_[hot] < params_.hotspotRatio * (ewma_[cold] + 1.0))
        return;
    // p99 guard: only rebalance toward a shard that is actually
    // serving no worse than the congested one.
    if (shards_[hot].serviceHist->quantile(0.99) <
        shards_[cold].serviceHist->quantile(0.99)) {
        return;
    }

    // Hottest tenant homed on the hot shard: most pending work there,
    // ties to the lowest tenant id.
    int tenant = -1;
    std::size_t best = 0;
    for (TenantId t = 0; t < serve_.tenants.size(); ++t) {
        if (order_[t][0] != static_cast<unsigned>(hot))
            continue;
        std::size_t pend = shards_[hot].queue->pending(t).size();
        if (pend > best) {
            best = pend;
            tenant = static_cast<int>(t);
        }
    }
    if (tenant < 0)
        return;
    startMigration(static_cast<TenantId>(tenant),
                   static_cast<unsigned>(hot),
                   static_cast<unsigned>(cold), now);
}

void
ShardRouter::startMigration(TenantId t, unsigned from, unsigned to,
                            Cycles now)
{
    migration_ = Migration{true, t, from, to,
                           now + params_.migrationDrain};
    ++report_.migrations;

    // Re-home instantly: the target becomes the head of the failover
    // order (new arrivals route there); the old home is the first
    // fallback, so crash failover still works mid-handoff.
    std::vector<unsigned> &ord = order_[t];
    ord.erase(std::remove(ord.begin(), ord.end(), to), ord.end());
    ord.insert(ord.begin(), to);
}

void
ShardRouter::finishMigration(Cycles now)
{
    Migration mig = migration_;
    migration_.active = false;
    cooldownUntil_ = now + params_.migrationCooldown;

    // Transplant leftovers: queued requests of the migrated tenant
    // still on the source rebuild on the target. A refused transplant
    // goes through the retry pipeline carrying migration_drain, so it
    // only sheds (with that reason) once its budget is spent.
    Shard &src = shards_[mig.from];
    std::vector<Request> left = src.queue->pruneIf(
        [&](const Request &r) { return r.tenant == mig.tenant; });
    for (const Request &req : left) {
        recycleRequest(*src.alloc, req);
        Track &tr = tracks_.at(req.id);
        --tr.inFlight;
        if (tr.done) {
            ++report_.hedgeCancelled;   // stale dual-dispatch twin
            continue;
        }
        if (shards_[mig.to].up && placeCopy(tr, mig.to, now, true)) {
            tr.primaryShard = mig.to;
            ++report_.migrationTransplants;
        } else {
            failCopy(tr, now, static_cast<int>(mig.from),
                     RejectReason::MigrationDrain);
        }
    }
}

std::size_t
ShardRouter::totalQueued() const
{
    std::size_t total = 0;
    for (const Shard &sh : shards_)
        total += sh.queue->size();
    return total;
}

bool
ShardRouter::admitGlobal(Track &tr, Cycles now)
{
    if (params_.globalQueueCap == 0 ||
        totalQueued() < params_.globalQueueCap) {
        return true;
    }

    // Over budget: the fleet sheds its lowest-QoS queued work first.
    // Victim tenant = strictly lower weight than the arrival, lowest
    // weight first, ties to the lowest tenant id.
    unsigned myWeight = serve_.tenants[tr.spec.tenant].weight;
    int victim = -1;
    for (TenantId t = 0; t < serve_.tenants.size(); ++t) {
        if (serve_.tenants[t].weight >= myWeight)
            continue;
        bool queued = false;
        for (const Shard &sh : shards_) {
            if (!sh.queue->pending(t).empty()) {
                queued = true;
                break;
            }
        }
        if (!queued)
            continue;
        if (victim < 0 ||
            serve_.tenants[t].weight <
                serve_.tenants[static_cast<TenantId>(victim)].weight) {
            victim = static_cast<int>(t);
        }
    }
    if (victim < 0) {
        // Nothing below this arrival's QoS: the arrival itself sheds.
        ++report_.globalSheds;
        shedTrack(tr, now, RejectReason::GlobalQueueFull);
        return false;
    }

    // Evict the victim tenant's youngest queued request fleet-wide
    // (latest arrival, ties to the highest id — the least sunk cost).
    TenantId vt = static_cast<TenantId>(victim);
    int vShard = -1;
    Cycles vArrival = 0;
    RequestId vId = 0;
    for (unsigned s = 0; s < shards_.size(); ++s) {
        const std::deque<Request> &fifo = shards_[s].queue->pending(vt);
        if (fifo.empty())
            continue;
        const Request &back = fifo.back();
        if (vShard < 0 || back.arrival > vArrival ||
            (back.arrival == vArrival && back.id > vId)) {
            vShard = static_cast<int>(s);
            vArrival = back.arrival;
            vId = back.id;
        }
    }
    Shard &sh = shards_[static_cast<unsigned>(vShard)];
    std::optional<Request> evicted = sh.queue->removeYoungest(vt);
    CC_ASSERT(evicted.has_value(), "victim queue emptied underneath us");
    recycleRequest(*sh.alloc, *evicted);
    ++report_.globalEvictions;

    Track &victimTrack = tracks_.at(evicted->id);
    --victimTrack.inFlight;
    if (victimTrack.done) {
        ++report_.hedgeCancelled;   // evicted a stale twin
    } else if (victimTrack.inFlight == 0) {
        sh.queue->recordShed(evicted->id, evicted->tenant,
                             RejectReason::GlobalQueueFull,
                             evicted->arrival);
        shedTrack(victimTrack, now, RejectReason::GlobalQueueFull);
    }
    return true;
}

std::size_t
ShardRouter::phaseOf(Cycles arrival) const
{
    const std::vector<Cycles> &bounds = params_.phaseBoundaries;
    std::size_t i = 0;
    while (i < bounds.size() && arrival >= bounds[i])
        ++i;
    return i;
}

void
ShardRouter::refreshFaultParams(Shard &shard)
{
    fault::FaultParams p = shard.baseFaults;
    for (const ChaosEvent *ev : shard.storms) {
        p.enabled = true;
        if (ev->kind == ChaosKind::Slow) {
            p.marginFailPerDualRowOp = std::min(
                0.5, std::max(p.marginFailPerDualRowOp,
                              kSlowMarginFailBase * ev->magnitude));
        } else {   // Partial: stuck-at defects under part of the shard
            p.stuckAtPerBlock = std::min(
                0.25, std::max(p.stuckAtPerBlock,
                               kPartialStuckAtBase * ev->magnitude));
        }
    }
    shard.sys->cc().mutableFaultInjector().setParams(p);
}

void
ShardRouter::crashFlush(unsigned s, Cycles now)
{
    Shard &sh = shards_[s];
    // The in-flight wave dies with the shard: its (eagerly computed)
    // results are discarded and every request fails over.
    if (sh.busy) {
        sh.busy = false;
        for (const Request &req : sh.wave.requests) {
            Track &tr = tracks_.at(req.id);
            --tr.inFlight;
            recycleRequest(*sh.alloc, req);
            sh.failedCtr->inc();
            failCopy(tr, now, static_cast<int>(s), RejectReason::ShardDown);
        }
        sh.wave = BatchScheduler::Wave{};
    }
    std::vector<Request> queued =
        sh.queue->pruneIf([](const Request &) { return true; });
    for (const Request &req : queued) {
        Track &tr = tracks_.at(req.id);
        --tr.inFlight;
        recycleRequest(*sh.alloc, req);
        sh.failedCtr->inc();
        failCopy(tr, now, static_cast<int>(s), RejectReason::ShardDown);
    }
}

void
ShardRouter::applyChaosStart(const ChaosEvent &ev, Cycles now)
{
    Shard &sh = shards_[ev.shard];
    if (ev.kind == ChaosKind::Crash) {
        bool was_up = sh.up;
        sh.up = false;
        if (was_up) {
            sh.downSince = now;
            sh.breaker.trip(now);
            crashFlush(ev.shard, now);
        }
    } else {
        sh.storms.push_back(&ev);
        refreshFaultParams(sh);
    }
}

void
ShardRouter::applyChaosEnd(const ChaosEvent &ev, Cycles now)
{
    Shard &sh = shards_[ev.shard];
    if (ev.kind == ChaosKind::Crash) {
        if (!sh.up) {
            sh.up = true;
            sh.downCyclesCtr->inc(now - sh.downSince);
        }
    } else {
        sh.storms.erase(
            std::remove(sh.storms.begin(), sh.storms.end(), &ev),
            sh.storms.end());
        refreshFaultParams(sh);
    }
}

void
ShardRouter::pruneDeadlines(unsigned s, Cycles now)
{
    if (params_.admissionDeadline == 0)
        return;
    Shard &sh = shards_[s];
    std::vector<Request> expired = sh.queue->pruneIf(
        [&](const Request &r) {
            return now > r.arrival &&
                   now - r.arrival > params_.admissionDeadline;
        });
    for (const Request &req : expired) {
        recycleRequest(*sh.alloc, req);
        Track &tr = tracks_.at(req.id);
        --tr.inFlight;
        if (tr.done) {
            ++report_.hedgeCancelled;   // stale twin aged out
            continue;
        }
        // Deadlines are terminal: a rebuilt copy would carry the same
        // offered arrival and expire again. A live sibling copy may
        // still commit the track.
        if (tr.inFlight == 0) {
            sh.queue->recordShed(req.id, req.tenant,
                                 RejectReason::DeadlineExpired, req.arrival);
            shedTrack(tr, now, RejectReason::DeadlineExpired);
        }
    }
}

bool
ShardRouter::dispatchShard(unsigned s, Cycles now)
{
    Shard &sh = shards_[s];
    if (!sh.up || sh.busy)
        return false;
    if (!sh.breaker.allowDispatch(now))
        return false;
    pruneDeadlines(s, now);
    if (sh.queue->empty())
        return false;
    sh.wave = sh.sched->dispatch(now);
    if (sh.wave.requests.empty())
        return false;
    sh.busy = true;
    sh.busyUntil = now + std::max<Cycles>(1, sh.wave.makespan);
    sh.wavesCtr->inc();
    return true;
}

void
ShardRouter::completeWave(unsigned s, Cycles now)
{
    Shard &sh = shards_[s];
    sh.busy = false;
    BatchScheduler::Wave wave = std::move(sh.wave);
    sh.wave = BatchScheduler::Wave{};
    sh.sys->advance(0, wave.makespan);

    for (std::size_t i = 0; i < wave.requests.size(); ++i) {
        const Request &req = wave.requests[i];
        const cc::CcExecResult &res = wave.results[i];
        Track &tr = tracks_.at(req.id);
        --tr.inFlight;

        bool timed_out = params_.shardTimeout != 0 &&
                         res.latency > params_.shardTimeout;
        if (timed_out) {
            sh.breaker.onFailure(now);
            sh.failedCtr->inc();
            recycleRequest(*sh.alloc, req);
            failCopy(tr, now, static_cast<int>(s),
                     RejectReason::RetriesExhausted);
            continue;
        }

        sh.breaker.onSuccess(now);
        if (tr.done) {
            // The sibling copy already committed (or the track shed
            // while this copy was executing): discard this result.
            if (tr.parent != kNoParent)
                ++report_.fanoutDiscarded;
            else
                ++report_.hedgeWasted;
            recycleRequest(*sh.alloc, req);
            continue;
        }
        commitCopy(tr, s, req, res, now);
    }
}

FleetReport
ShardRouter::run(const std::vector<workload::RequestSpec> &specs,
                 const ChaosSchedule &chaos)
{
    CC_ASSERT(!ran_, "one run per ShardRouter instance");
    ran_ = true;
    for (const workload::RequestSpec &spec : specs) {
        CC_ASSERT(spec.tenant < serve_.tenants.size(),
                  "request names tenant ", spec.tenant,
                  " but only ", serve_.tenants.size(),
                  " tenants are configured");
    }
    report_.offered = specs.size();
    report_.chaos = chaos.toJson();

    // Per-phase availability windows (classified by offered arrival).
    if (!params_.phaseBoundaries.empty()) {
        Cycles prev = 0;
        for (Cycles b : params_.phaseBoundaries) {
            report_.phases.push_back(
                FleetReport::PhaseSummary{prev, b, 0, 0, 0, 1.0});
            prev = b;
        }
        report_.phases.push_back(
            FleetReport::PhaseSummary{prev, 0, 0, 0, 0, 1.0});
        for (const workload::RequestSpec &spec : specs)
            ++report_.phases[phaseOf(spec.arrival)].offered;
    }

    if (params_.rebalancePeriod != 0)
        nextRebalance_ = params_.rebalancePeriod;

    // Merge the schedule into a boundary timeline; at equal times ends
    // apply before starts (a shard recovering exactly when another
    // window opens is recovered first), ties break by (shard, kind).
    struct Boundary
    {
        Cycles at;
        int phase;   ///< 0 = end, 1 = start
        const ChaosEvent *ev;
    };
    std::vector<Boundary> bounds;
    for (const ChaosEvent &ev : chaos.events) {
        bounds.push_back(Boundary{ev.start, 1, &ev});
        bounds.push_back(Boundary{ev.end(), 0, &ev});
    }
    std::sort(bounds.begin(), bounds.end(),
              [](const Boundary &a, const Boundary &b) {
                  if (a.at != b.at)
                      return a.at < b.at;
                  if (a.phase != b.phase)
                      return a.phase < b.phase;
                  if (a.ev->shard != b.ev->shard)
                      return a.ev->shard < b.ev->shard;
                  return static_cast<int>(a.ev->kind) <
                         static_cast<int>(b.ev->kind);
              });

    std::size_t next_spec = 0;
    std::size_t next_bound = 0;
    Cycles now = 0;

    while (true) {
        // 1. Chaos boundaries due now.
        while (next_bound < bounds.size() && bounds[next_bound].at <= now) {
            const Boundary &b = bounds[next_bound++];
            if (b.phase == 1)
                applyChaosStart(*b.ev, now);
            else
                applyChaosEnd(*b.ev, now);
        }

        // 2. Wave completions, shard index order.
        for (unsigned s = 0; s < shards_.size(); ++s) {
            if (shards_[s].busy && shards_[s].busyUntil <= now)
                completeWave(s, now);
        }

        // 3. Arrivals due now: route to the tenant's first live shard.
        while (next_spec < specs.size() &&
               specs[next_spec].arrival <= now) {
            const workload::RequestSpec &spec = specs[next_spec++];
            RequestId id = nextId_++;
            Track &tr = tracks_
                            .emplace(id, Track{spec, id, 0, 0, 0, false,
                                               false})
                            .first->second;

            // Multi-shard request: split into fan-out legs behind a
            // fan-in barrier (needs at least two live-able shards).
            if (spec.fanout > 1 && shardCount() > 1) {
                spawnFanout(tr, now);
                continue;
            }

            RejectReason why = RejectReason::ShardDown;
            std::optional<unsigned> s =
                routeShard(spec.tenant, now, -1, &why);
            if (!s) {
                // Brownout shed at the front door: no retry budget is
                // spent on a request the policy refuses outright.
                shedTrack(tr, now, why);
                continue;
            }
            if (!admitGlobal(tr, now))
                continue;
            if (*s != order_[spec.tenant][0])
                ++report_.reroutes;
            if (placeCopy(tr, *s, now, false) && params_.hedgeAge != 0 &&
                hiQos(spec.tenant)) {
                hedges_.push(Timer{now + params_.hedgeAge, id, -1});
            }

            // Migration handoff: inside the drain window the migrating
            // tenant dual-dispatches a shadow copy on the source, so a
            // target crash mid-handoff cannot drop the request.
            if (migration_.active && spec.tenant == migration_.tenant &&
                tr.inFlight > 0 && *s == migration_.to) {
                Shard &src = shards_[migration_.from];
                bool capped = params_.globalQueueCap != 0 &&
                              totalQueued() >= params_.globalQueueCap;
                if (src.up && src.breaker.allowDispatch(now) &&
                    !capped &&
                    placeCopy(tr, migration_.from, now, true)) {
                    ++report_.migrationDualDispatch;
                }
            }
        }

        // 4. Retry timers due now.
        while (!retries_.empty() && retries_.top().at <= now) {
            Timer t = retries_.top();
            retries_.pop();
            Track &tr = tracks_.at(t.id);
            if (tr.done)
                continue;
            bool isLeg = tr.parent != kNoParent;
            RejectReason why = RejectReason::ShardDown;
            std::optional<unsigned> s = routeShard(
                tr.spec.tenant, now, t.avoidShard, &why, 0, isLeg);
            if (!s)   // nowhere else: the avoided shard may have healed
                s = routeShard(tr.spec.tenant, now, -1, &why, 0, isLeg);
            if (!s) {
                ++tr.attempts;   // a consumed (failed) attempt
                failCopy(tr, now, -1, why);
                continue;
            }
            if (*s != order_[tr.spec.tenant][0])
                ++report_.reroutes;
            placeCopy(tr, *s, now, false);
        }

        // 5. Hedge timers due now.
        while (!hedges_.empty() && hedges_.top().at <= now) {
            Timer t = hedges_.top();
            hedges_.pop();
            Track &tr = tracks_.at(t.id);
            if (tr.done || tr.hedged || tr.inFlight == 0)
                continue;
            // Hedges are optional redundancy: skip at the fleet-wide
            // budget rather than evicting admitted work for them.
            if (params_.globalQueueCap != 0 &&
                totalQueued() >= params_.globalQueueCap) {
                continue;
            }
            std::optional<unsigned> s = routeShard(
                tr.spec.tenant, now, static_cast<int>(tr.primaryShard),
                nullptr, 0, tr.parent != kNoParent);
            if (!s)
                continue;   // no live sibling to hedge onto
            tr.hedged = true;
            if (placeCopy(tr, *s, now, true))
                ++report_.hedgesLaunched;
            else
                tr.hedged = false;
        }

        // 6. Fleet controller: finish an expired drain window, then
        //    run hot-spot detector ticks that are due.
        if (params_.rebalancePeriod != 0) {
            if (migration_.active && migration_.drainUntil <= now)
                finishMigration(now);
            while (nextRebalance_ <= now) {
                rebalanceTick(now);
                nextRebalance_ += params_.rebalancePeriod;
            }
        }

        // 7. Dispatch every idle live shard with pending work.
        for (unsigned s = 0; s < shards_.size(); ++s)
            dispatchShard(s, now);

        // 8. Done when every offered request is committed or shed
        //    (fan-out parents count once; legs roll up to them).
        if (next_spec == specs.size() &&
            report_.served + report_.shed == report_.offered) {
            break;
        }

        // 9. Advance simulated time to the next pending event.
        Cycles nxt = kNever;
        if (next_spec < specs.size())
            nxt = std::min(nxt, specs[next_spec].arrival);
        if (next_bound < bounds.size())
            nxt = std::min(nxt, bounds[next_bound].at);
        for (const Shard &sh : shards_) {
            if (sh.busy) {
                nxt = std::min(nxt, sh.busyUntil);
            } else if (sh.up && !sh.queue->empty() &&
                       sh.breaker.state(now) ==
                           CircuitBreaker::State::Open) {
                nxt = std::min(nxt, sh.breaker.halfOpenAt());
            }
        }
        if (!retries_.empty())
            nxt = std::min(nxt, retries_.top().at);
        if (!hedges_.empty())
            nxt = std::min(nxt, hedges_.top().at);
        if (params_.rebalancePeriod != 0) {
            nxt = std::min(nxt, nextRebalance_);
            if (migration_.active)
                nxt = std::min(nxt, migration_.drainUntil);
        }
        CC_ASSERT(nxt != kNever, "router stalled with ",
                  report_.offered - report_.served - report_.shed,
                  " requests outstanding at cycle ", now);
        CC_ASSERT(nxt > now, "router failed to advance time");
        now = nxt;
    }

    // Finalize.
    report_.availability = report_.offered
        ? static_cast<double>(report_.served) /
              static_cast<double>(report_.offered)
        : 1.0;
    report_.elapsed = now;

    for (FleetReport::PhaseSummary &p : report_.phases) {
        CC_ASSERT(p.served + p.shed == p.offered,
                  "phase accounting leak: ", p.served, " + ", p.shed,
                  " != ", p.offered);
        p.availability = p.offered
            ? static_cast<double>(p.served) /
                  static_cast<double>(p.offered)
            : 1.0;
    }

    for (unsigned s = 0; s < shards_.size(); ++s) {
        Shard &sh = shards_[s];
        if (!sh.up)   // still dark at end of run
            sh.downCyclesCtr->inc(now - sh.downSince);
        FleetReport::ShardSummary sum;
        sum.index = s;
        sum.served = sh.servedCtr->value();
        sum.failed = sh.failedCtr->value();
        sum.waves = sh.wavesCtr->value();
        sum.downCycles = sh.downCyclesCtr->value();
        sum.breakerTrips = sh.breaker.trips();
        sum.p50ServiceCycles = sh.serviceHist->quantile(0.50);
        sum.p99ServiceCycles = sh.serviceHist->quantile(0.99);
        report_.breakerTrips += sh.breaker.trips();
        report_.shards.push_back(sum);
    }

    for (TenantId t = 0; t < serve_.tenants.size(); ++t) {
        FleetReport::TenantSummary sum;
        sum.name = serve_.tenants[t].name;
        sum.served = tenantServed_[t]->value();
        for (std::size_t r = 0; r < kNumRejectReasons; ++r)
            sum.shed += fleetShed_->count(t, static_cast<RejectReason>(r));
        sum.p50SojournCycles = tenantSojourn_[t]->quantile(0.50);
        sum.p99SojournCycles = tenantSojourn_[t]->quantile(0.99);
        sum.p999SojournCycles = tenantSojourn_[t]->quantile(0.999);
        report_.tenants.push_back(std::move(sum));
    }

    Json rej = Json::object();
    rej["fleet"] = fleetShed_->toJson();
    Json per_shard = Json::array();
    for (Shard &sh : shards_)
        per_shard.push(sh.queue->rejectionsJson());
    rej["shard_queues"] = std::move(per_shard);
    report_.rejections = std::move(rej);

    return report_;
}

} // namespace ccache::serve
