/**
 * @file
 * Fault-tolerant sharded serving front end (DESIGN.md §12).
 *
 * The ShardRouter places tenants across N independent sim::System
 * shards by consistent hashing (a vnode ring keyed by tenant name;
 * each tenant's failover order is its clockwise successor walk) and
 * runs every request through a reliability pipeline:
 *
 *  - admission deadline: a request that cannot be dispatched within
 *    admissionDeadline cycles of its offered arrival is shed
 *    (deadline_expired) instead of serving arbitrarily stale work;
 *  - per-shard timeout: a request whose service latency exceeds
 *    shardTimeout counts as a shard failure and re-dispatches;
 *  - seeded retries: failed requests rebuild on the next live shard in
 *    their failover order after a deterministic exponential backoff
 *    with hash-derived jitter (retryDelay — no RNG stream);
 *  - hedging: a high-QoS request still incomplete hedgeAge cycles
 *    after admission launches a twin on its sibling shard; the first
 *    copy to commit wins and the loser is cancelled or discarded;
 *  - circuit breaking + brownout: per-shard breakers trip on failure
 *    streaks (or instantly on a crash). An open breaker browns the
 *    shard out: high-QoS tenants (weight >= 2) reroute along the
 *    ring, lower tenants shed (breaker_open) — lowest QoS first, as
 *    structured shed records. Half-open probes re-close the breaker
 *    after CircuitBreaker::kProbeSuccesses clean requests.
 *
 * Failures are injected by a ChaosSchedule in simulated time (shard
 * crash windows; margin-fail and stuck-at storms through each shard's
 * FaultInjector::setParams). The event loop advances through a merged
 * timeline of arrivals, chaos boundaries, wave completions, retry
 * timers, hedge timers and breaker cooloffs in a fixed deterministic
 * order, so a chaos run is byte-identical at any thread count (§8).
 * Waves execute eagerly at dispatch (their makespan is known up
 * front); a crash boundary inside a wave's window dooms the wave and
 * fails its requests — chaos is wave-granular by construction.
 *
 * With verifyGolden set, every request's operands are filled with
 * bytes derived from (patternSeed, id) — identical on every shard it
 * lands on — and every commit is checked bit-for-bit against a
 * host-side reference model (request_builder.hh), so "availability"
 * counts only provably correct completions. A request's Zipf content
 * key (RequestSpec::key) folds into that pattern seed, so hot keys
 * carry hot data and stay verifiable wherever they are re-placed.
 *
 * Fleet controller (DESIGN.md §15) — three cooperating mechanisms
 * layered over the reliability pipeline:
 *
 *  - cross-shard fan-out/fan-in: a request with spec.fanout > 1 splits
 *    into that many legs placed on distinct shards (clockwise along
 *    the tenant's failover order). Each leg runs the full pipeline
 *    independently (per-leg deadlines, retries, hedges); the parent is
 *    a fan-in barrier that commits only when every leg golden-verifies
 *    and degrades to a structured partial_result shed record the
 *    moment any leg fails terminally (remaining queued legs cancel);
 *  - live tenant migration: with rebalancePeriod set, a seeded
 *    hot-spot detector (EWMA of per-shard queue depth, guarded by the
 *    per-shard p99 service latency) drains the hottest tenant to the
 *    coldest shard. New arrivals flip to the target instantly while a
 *    dual-dispatch handoff window keeps a shadow copy on the source
 *    (first commit wins), so no request is dropped mid-migration even
 *    if either end crashes; at the drain deadline leftover queued
 *    requests transplant to the target, shedding migration_drain only
 *    when the target refuses them;
 *  - global backpressure: with globalQueueCap set, a fleet-wide
 *    admission budget spans all shard queues. An arrival over budget
 *    evicts the youngest queued request of the lowest-QoS tenant that
 *    is strictly below the arrival's weight (shed global_queue_full);
 *    with no lower-QoS victim the arrival itself sheds. One saturated
 *    shard therefore sheds the fleet's lowest-QoS work first instead
 *    of its own tenants indiscriminately.
 */

#ifndef CCACHE_SERVE_SHARD_ROUTER_HH
#define CCACHE_SERVE_SHARD_ROUTER_HH

#include <limits>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "fault/fault_injector.hh"
#include "serve/chaos.hh"
#include "serve/reliability.hh"
#include "serve/request_builder.hh"
#include "serve/server.hh"

namespace ccache::serve {

/** Fleet-level knobs layered over the per-shard ServerParams. */
struct RouterParams
{
    unsigned shards = 2;

    /** Shed a request not dispatched within this many cycles of its
     *  offered arrival (0 = no deadline). */
    Cycles admissionDeadline = 60000;

    /** Service latency above this counts as a shard failure and the
     *  request re-dispatches (0 = no timeout). */
    Cycles shardTimeout = 0;

    RetryParams retry;

    /** Hedge a high-QoS request still incomplete this long after
     *  admission (0 = hedging off). */
    Cycles hedgeAge = 0;

    /** Golden verification: fill operands from patternSeed and check
     *  every commit against the host-side reference model. @{ */
    bool verifyGolden = false;
    std::uint64_t patternSeed = 0x601dULL;
    /** @} */

    /** Fleet controller (DESIGN.md §15). @{ */

    /** Hot-spot detector tick period; 0 disables rebalancing. */
    Cycles rebalancePeriod = 0;

    /** Migrate when the hottest shard's depth EWMA is at least
     *  hotspotRatio x (coldest EWMA + 1) and at least hotspotMinLoad
     *  absolute (and its p99 service latency is no better than the
     *  cold shard's). @{ */
    double hotspotRatio = 3.0;
    double hotspotMinLoad = 4.0;
    /** @} */

    /** Dual-dispatch handoff window after a migration starts; at its
     *  end leftover queued requests transplant source -> target. */
    Cycles migrationDrain = 20000;

    /** Minimum gap between migrations (detector hysteresis). */
    Cycles migrationCooldown = 60000;

    /** Fleet-wide queued-request budget across every shard queue
     *  (0 = no global backpressure). */
    std::size_t globalQueueCap = 0;

    /** Report availability separately per [boundary, boundary) window
     *  (sorted cycle boundaries; empty = single-window report only).
     *  Requests are classified by offered arrival time. */
    std::vector<Cycles> phaseBoundaries;
    /** @} */
};

/** End-of-run fleet summary (also exported as JSON). */
struct FleetReport
{
    std::uint64_t offered = 0;
    std::uint64_t served = 0;
    std::uint64_t shed = 0;

    /** served / offered (every offered request is accounted one way
     *  or the other, so this is completion availability). */
    double availability = 0.0;

    std::uint64_t retries = 0;
    std::uint64_t reroutes = 0;
    std::uint64_t hedgesLaunched = 0;
    std::uint64_t hedgeWins = 0;
    std::uint64_t hedgeCancelled = 0;
    std::uint64_t hedgeWasted = 0;
    std::uint64_t breakerTrips = 0;
    std::uint64_t goldenChecked = 0;
    std::uint64_t goldenMismatch = 0;
    Cycles elapsed = 0;

    /** Fan-out/fan-in barrier accounting (§15). @{ */
    std::uint64_t fanoutParents = 0;   ///< offered multi-shard requests
    std::uint64_t fanoutLegs = 0;      ///< legs launched
    std::uint64_t fanoutPartial = 0;   ///< parents degraded to partial
    std::uint64_t fanoutDiscarded = 0; ///< leg results discarded after
                                       ///< the barrier resolved
    /** @} */

    /** Live-migration accounting (§15). @{ */
    std::uint64_t migrations = 0;
    std::uint64_t migrationDualDispatch = 0;  ///< shadow copies placed
    std::uint64_t migrationTransplants = 0;   ///< drain-end transfers
    /** @} */

    /** Global-backpressure accounting (§15). @{ */
    std::uint64_t globalEvictions = 0;  ///< lower-QoS victims evicted
    std::uint64_t globalSheds = 0;      ///< arrivals shed at the budget
    /** @} */

    struct ShardSummary
    {
        unsigned index = 0;
        std::uint64_t served = 0;
        std::uint64_t failed = 0;
        std::uint64_t waves = 0;
        std::uint64_t downCycles = 0;
        std::uint64_t breakerTrips = 0;
        std::uint64_t p50ServiceCycles = 0;
        std::uint64_t p99ServiceCycles = 0;
    };
    std::vector<ShardSummary> shards;

    struct TenantSummary
    {
        std::string name;
        std::uint64_t served = 0;
        std::uint64_t shed = 0;
        std::uint64_t p50SojournCycles = 0;
        std::uint64_t p99SojournCycles = 0;
        std::uint64_t p999SojournCycles = 0;
    };
    std::vector<TenantSummary> tenants;

    /** Per-window availability (RouterParams::phaseBoundaries);
     *  requests are classified by offered arrival time, counted at
     *  their terminal commit/shed. */
    struct PhaseSummary
    {
        Cycles start = 0;
        Cycles end = 0;   ///< exclusive; 0 = open-ended
        std::uint64_t offered = 0;
        std::uint64_t served = 0;
        std::uint64_t shed = 0;
        double availability = 1.0;
    };
    std::vector<PhaseSummary> phases;

    /** Structured shed records: router pipeline sheds plus each
     *  shard's admission-queue log. */
    Json rejections;

    /** The chaos schedule the run was subjected to. */
    Json chaos;

    Json toJson() const;
};

class ShardRouter
{
  public:
    /** CC_FATAL on nonsensical parameters (ServerParams::validate, no
     *  shards, no dispatch attempts, unsorted phase boundaries, or a
     *  non-positive hot-spot threshold while rebalancing). */
    ShardRouter(const sim::SystemConfig &sys_config,
                const ServerParams &serve_params,
                const RouterParams &router_params);
    ~ShardRouter();

    /** Replay @p specs (sorted by arrival) to completion under
     *  @p chaos. One run per router instance. */
    FleetReport run(const std::vector<workload::RequestSpec> &specs,
                    const ChaosSchedule &chaos);

    unsigned shardCount() const { return static_cast<unsigned>(shards_.size()); }
    sim::System &shardSystem(unsigned i) { return *shards_[i].sys; }

    /** A shard's circuit breaker (observability / tests). */
    const CircuitBreaker &shardBreaker(unsigned i) const
    {
        return shards_[i].breaker;
    }

    /** A tenant's ring failover order (home shard first). */
    const std::vector<unsigned> &failoverOrder(TenantId t) const
    {
        return order_[t];
    }

    /** Fleet-level stats registry (histograms, per-shard counters). */
    StatRegistry &fleetStats() { return fleetStats_; }

  private:
    struct Shard
    {
        std::unique_ptr<sim::System> sys;
        std::unique_ptr<geometry::LocalityAllocator> alloc;
        std::unique_ptr<RequestQueue> queue;
        std::unique_ptr<BatchScheduler> sched;
        CircuitBreaker breaker;

        bool up = true;
        Cycles downSince = 0;
        bool busy = false;
        Cycles busyUntil = 0;
        bool waveDoomed = false;
        BatchScheduler::Wave wave;

        /** Restore point + active storm windows for chaos. @{ */
        fault::FaultParams baseFaults;
        std::vector<const ChaosEvent *> storms;
        /** @} */

        StatCounter *servedCtr = nullptr;
        StatCounter *failedCtr = nullptr;
        StatCounter *wavesCtr = nullptr;
        StatCounter *downCyclesCtr = nullptr;
        StatLogHistogram *serviceHist = nullptr;
    };

    static constexpr RequestId kNoParent =
        std::numeric_limits<RequestId>::max();

    /** Lifecycle of one offered request across attempts and copies. */
    struct Track
    {
        workload::RequestSpec spec;
        RequestId id = 0;
        unsigned attempts = 0;   ///< placements consumed (incl. first)
        unsigned inFlight = 0;   ///< copies queued or executing
        unsigned primaryShard = 0;
        bool hedged = false;
        bool done = false;
        /** Fan-out parent id; kNoParent for ordinary requests and for
         *  parents themselves (a leg's terminal events roll up to the
         *  parent's barrier instead of the fleet counters). */
        RequestId parent = kNoParent;
    };

    /** Fan-in barrier state of one multi-shard request. */
    struct Fanout
    {
        unsigned legs = 0;
        unsigned committed = 0;
        std::vector<RequestId> legIds;
    };

    /** One in-progress tenant migration (at most one at a time). */
    struct Migration
    {
        bool active = false;
        TenantId tenant = 0;
        unsigned from = 0;
        unsigned to = 0;
        Cycles drainUntil = 0;
    };

    /** (ready cycle, request id, shard to avoid) — min-heap. */
    struct Timer
    {
        Cycles at = 0;
        RequestId id = 0;
        int avoidShard = -1;
        bool operator>(const Timer &o) const
        {
            return at != o.at ? at > o.at : id > o.id;
        }
    };
    using TimerHeap =
        std::priority_queue<Timer, std::vector<Timer>, std::greater<Timer>>;

    bool hiQos(TenantId t) const;

    /** First dispatchable shard in @p t's failover order (skipping
     *  @p avoid); lo-QoS tenants only consider their home shard unless
     *  @p fullSpan (fan-out legs span regardless of QoS). The walk
     *  starts @p startOffset positions along the order, which spreads
     *  fan-out legs over distinct shards. On failure @p why says
     *  whether brownout or a dead fleet refused. */
    std::optional<unsigned> routeShard(TenantId t, Cycles now, int avoid,
                                       RejectReason *why,
                                       std::size_t startOffset = 0,
                                       bool fullSpan = false) const;

    /** Build + enqueue one copy of @p tr on shard @p s. */
    bool placeCopy(Track &tr, unsigned s, Cycles now, bool hedge);

    /** A copy of @p tr failed on @p shard: schedule a retry or shed. */
    void failCopy(Track &tr, Cycles now, int shard, RejectReason reason);

    void shedTrack(Track &tr, Cycles now, RejectReason reason);
    void commitCopy(Track &tr, unsigned s, const Request &req,
                    const cc::CcExecResult &result, Cycles now);
    /** Fleet served accounting of one offered request committed at
     *  @p now (a fan-out parent counts once, at its last leg). */
    void countServed(const workload::RequestSpec &spec, Cycles now);

    void applyChaosStart(const ChaosEvent &ev, Cycles now);
    void applyChaosEnd(const ChaosEvent &ev, Cycles now);
    void refreshFaultParams(Shard &shard);
    void crashFlush(unsigned s, Cycles now);

    void completeWave(unsigned s, Cycles now);
    void pruneDeadlines(unsigned s, Cycles now);
    bool dispatchShard(unsigned s, Cycles now);

    /** Fan-out/fan-in barrier (§15). @{ */
    void spawnFanout(Track &parent, Cycles now);
    void legCommitted(RequestId parentId, Cycles now);
    void legFailed(RequestId parentId, Cycles now);
    /** Pull every still-queued copy of @p id off every shard queue. */
    unsigned cancelQueuedCopies(RequestId id);
    /** @} */

    /** Live migration (§15). @{ */
    void rebalanceTick(Cycles now);
    void startMigration(TenantId t, unsigned from, unsigned to,
                        Cycles now);
    void finishMigration(Cycles now);
    /** @} */

    /** Global backpressure (§15): make room for (or refuse) one copy
     *  of @p tr at the fleet-wide budget. True = place the copy. */
    bool admitGlobal(Track &tr, Cycles now);
    std::size_t totalQueued() const;

    /** Per-phase availability window of an offered arrival (§15). */
    std::size_t phaseOf(Cycles arrival) const;

    ServerParams serve_;
    RouterParams params_;

    std::vector<Shard> shards_;
    /** Sorted vnode ring: (point, shard). */
    std::vector<std::pair<std::uint64_t, unsigned>> ring_;
    /** Per-tenant failover order (home first). */
    std::vector<std::vector<unsigned>> order_;

    std::unordered_map<RequestId, Track> tracks_;
    std::unordered_map<RequestId, Fanout> fanouts_;
    TimerHeap retries_;
    TimerHeap hedges_;
    RequestId nextId_ = 0;
    bool ran_ = false;

    /** Fleet-controller state (§15). @{ */
    Migration migration_;
    std::vector<double> ewma_;       ///< per-shard queue-depth EWMA
    Cycles nextRebalance_ = 0;
    Cycles cooldownUntil_ = 0;
    /** @} */

    StatRegistry fleetStats_;
    std::unique_ptr<ShedLog> fleetShed_;
    StatLogHistogram *fleetSojourn_ = nullptr;
    std::vector<StatCounter *> tenantServed_;
    std::vector<StatLogHistogram *> tenantSojourn_;
    FleetReport report_;
};

} // namespace ccache::serve

#endif // CCACHE_SERVE_SHARD_ROUTER_HH
