#include "workload/traffic_gen.hh"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/logging.hh"
#include "common/rng.hh"
#include "workload/zipf.hh"

namespace ccache::workload {

namespace {

/** Per-tenant generation state: an independent arrival clock + RNG.
 *  Key draws use their own derived stream so enabling a key space
 *  never perturbs the arrival/size/op sequence (§8 stream contract —
 *  the keyed run replays the unkeyed run's timing exactly). */
struct TenantState
{
    Rng rng{0};
    Rng keyRng{0};
    Cycles clock = 0;
    double rate = 0.0;                  ///< base requests per cycle
    std::vector<std::pair<double, cc::CcOpcode>> mix;  ///< cumulative
    double mixTotal = 0.0;
};

/** Rate multiplier active at @p at (phases sorted by start cycle). */
double
rateMultiplier(const TenantTraffic &spec, Cycles at)
{
    double m = 1.0;
    for (const TenantTraffic::RatePhase &p : spec.phases) {
        if (p.at > at)
            break;
        m = p.multiplier;
    }
    return m;
}

/** Next boundary strictly after @p at where the multiplier actually
 *  changes (or 0 when none). A phase that re-states the current
 *  multiplier is a no-op and must not restart the exponential draw —
 *  a unit-multiplier phase list is stream-invisible. */
Cycles
nextRateChange(const TenantTraffic &spec, Cycles at)
{
    double m = rateMultiplier(spec, at);
    for (const TenantTraffic::RatePhase &p : spec.phases) {
        if (p.at <= at)
            continue;
        if (p.multiplier != m)
            return p.at;
        m = p.multiplier;
    }
    return 0;
}

/** One exponential gap at @p rate, at least one cycle. */
Cycles
expGap(TenantState &t, double rate)
{
    double u = t.rng.uniform();                   // [0, 1)
    double gap = -std::log1p(-u) / rate;          // cycles
    if (gap > 1e15)                               // degenerate rate guard
        gap = 1e15;
    return std::max<Cycles>(1, static_cast<Cycles>(std::llround(gap)));
}

/**
 * Advance @p t's arrival clock by one inter-arrival time under the
 * tenant's (possibly phased) rate. A draw that crosses a phase
 * boundary restarts from the boundary at the new rate (the exponential
 * is memoryless, so the restart keeps the process Poisson per phase);
 * with no phases this consumes exactly one uniform draw, identical to
 * the flat-rate generator.
 */
void
advanceClock(TenantState &t, const TenantTraffic &spec)
{
    for (;;) {
        double rate = t.rate * rateMultiplier(spec, t.clock);
        if (!(rate > 0.0))
            CC_FATAL("tenant phase rate must stay positive");
        Cycles gap = expGap(t, rate);
        Cycles boundary = nextRateChange(spec, t.clock);
        if (boundary != 0 && t.clock + gap >= boundary) {
            t.clock = boundary;
            continue;
        }
        t.clock += gap;
        return;
    }
}

cc::CcOpcode
drawOp(TenantState &t)
{
    double x = t.rng.uniform() * t.mixTotal;
    for (const auto &[cum, op] : t.mix) {
        if (x < cum)
            return op;
    }
    return t.mix.back().second;
}

std::size_t
drawBytes(TenantState &t, const TenantTraffic &spec, cc::CcOpcode op)
{
    double lo = static_cast<double>(std::max<std::size_t>(
        spec.minBytes, kBlockSize));
    double hi = static_cast<double>(std::max(spec.maxBytes, spec.minBytes));
    double v = lo * std::pow(hi / lo, t.rng.uniform());
    (void)op;
    std::size_t bytes = static_cast<std::size_t>(v);
    bytes = ((bytes + kBlockSize - 1) / kBlockSize) * kBlockSize;
    return std::max(bytes, kBlockSize);
}

} // namespace

std::vector<RequestSpec>
generateTraffic(const TrafficParams &params)
{
    if (params.tenants.empty())
        CC_FATAL("traffic needs at least one tenant");

    // Shared key-space alias table; each tenant samples it through its
    // own RNG stream, so keyed and unkeyed tenants stay decorrelated.
    std::unique_ptr<ZipfSampler> keys;
    if (params.zipfKeys > 0) {
        keys = std::make_unique<ZipfSampler>(params.zipfKeys,
                                             params.keyExponent);
    }

    std::vector<TenantState> state(params.tenants.size());
    for (std::size_t i = 0; i < params.tenants.size(); ++i) {
        const TenantTraffic &spec = params.tenants[i];
        TenantState &t = state[i];
        // Seed from (seed, tenant index + name) so reordering or
        // renaming tenants decorrelates every stream.
        t.rng = Rng(deriveSeed(params.seed,
                               std::to_string(i) + ":" + spec.name));
        t.keyRng = Rng(deriveSeed(
            params.seed, std::to_string(i) + ":" + spec.name + ":key"));
        if (!(spec.requestsPerKilocycle > 0.0))
            CC_FATAL("tenant arrival rate must be positive");
        if (!std::is_sorted(spec.phases.begin(), spec.phases.end(),
                            [](const auto &a, const auto &b) {
                                return a.at < b.at;
                            }))
            CC_FATAL("tenant rate phases must be sorted by start cycle");
        t.rate = spec.requestsPerKilocycle / 1000.0;
        const std::pair<double, cc::CcOpcode> weights[] = {
            {spec.weightAnd, cc::CcOpcode::And},
            {spec.weightOr, cc::CcOpcode::Or},
            {spec.weightXor, cc::CcOpcode::Xor},
            {spec.weightCopy, cc::CcOpcode::Copy},
            {spec.weightSearch, cc::CcOpcode::Search},
            {spec.weightCmp, cc::CcOpcode::Cmp},
            {spec.weightBuz, cc::CcOpcode::Buz},
            {spec.weightNot, cc::CcOpcode::Not},
        };
        for (const auto &[w, op] : weights) {
            if (w <= 0.0)
                continue;
            t.mixTotal += w;
            t.mix.emplace_back(t.mixTotal, op);
        }
        if (t.mix.empty())
            CC_FATAL("tenant op mix is empty");
        advanceClock(t, spec);
    }

    // Deterministic k-way merge: always emit the earliest pending
    // arrival, ties broken by tenant index.
    std::vector<RequestSpec> out;
    out.reserve(params.totalRequests);
    while (out.size() < params.totalRequests) {
        std::size_t pick = 0;
        for (std::size_t i = 1; i < state.size(); ++i) {
            if (state[i].clock < state[pick].clock)
                pick = i;
        }
        TenantState &t = state[pick];
        const TenantTraffic &spec = params.tenants[pick];

        RequestSpec req;
        req.arrival = t.clock;
        req.tenant = static_cast<unsigned>(pick);
        req.op = drawOp(t);
        req.bytes = drawBytes(t, spec, req.op);
        req.scattered = spec.scatterFraction > 0.0 &&
            t.rng.chance(spec.scatterFraction);
        // Keys come from the tenant's dedicated key stream and fan-out
        // draws are conditional, so a keyless, fanout-less config
        // replays the exact historical arrival sequence — and enabling
        // keys never shifts arrivals, sizes, or ops.
        if (keys) {
            req.key =
                static_cast<std::uint64_t>(keys->sample(t.keyRng)) + 1;
        }
        if (spec.fanoutFraction > 0.0 &&
            t.rng.chance(spec.fanoutFraction)) {
            req.fanout = std::max(2u, spec.fanoutLegs);
        }
        out.push_back(req);

        advanceClock(t, spec);
    }
    return out;
}

} // namespace ccache::workload
