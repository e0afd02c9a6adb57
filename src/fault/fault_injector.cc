#include "fault/fault_injector.hh"

#include <algorithm>

#include "common/logging.hh"

namespace ccache::fault {

namespace {

constexpr std::size_t kBlockBits = 8 * kBlockSize;

/** SplitMix64 finalizer: the pure hash behind location-keyed faults. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Map a hash to a uniform double in [0, 1). */
double
hashFrac(std::uint64_t h)
{
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

void
checkRate(double rate, const char *name)
{
    if (rate < 0.0 || rate > 1.0)
        CC_FATAL("fault rate ", name, " = ", rate, " outside [0, 1]");
}

} // namespace

const char *
toString(FaultKind kind)
{
    switch (kind) {
      case FaultKind::None: return "none";
      case FaultKind::TransientSingle: return "transient-single";
      case FaultKind::TransientDouble: return "transient-double";
      case FaultKind::TransientBurst: return "transient-burst";
      case FaultKind::StuckAt: return "stuck-at";
      case FaultKind::MarginFail: return "margin-fail";
    }
    return "unknown";
}

void
FaultParams::validate() const
{
    checkRate(transientPerBlockOp, "transientPerBlockOp");
    checkRate(doubleBitFraction, "doubleBitFraction");
    checkRate(burstFraction, "burstFraction");
    checkRate(doubleBitFraction + burstFraction,
              "doubleBitFraction + burstFraction");
    checkRate(stuckAtPerBlock, "stuckAtPerBlock");
    checkRate(stuckAtDoubleFraction, "stuckAtDoubleFraction");
    checkRate(marginFailPerDualRowOp, "marginFailPerDualRowOp");
    checkRate(backgroundUpsetPerInstr, "backgroundUpsetPerInstr");
    checkRate(weakSubarrayFraction, "weakSubarrayFraction");
    if (weakSubarrayScale < 0.0)
        CC_FATAL("weakSubarrayScale must be non-negative");
}

FaultInjector::FaultInjector(const FaultParams &params)
    : params_(params), rng_(params.seed)
{
    params_.validate();
}

void
FaultInjector::setParams(const FaultParams &params)
{
    params.validate();
    params_ = params;
}

std::uint64_t
FaultInjector::locHash(std::uint64_t a, std::uint64_t b) const
{
    return mix64(mix64(params_.seed ^ a) ^ b);
}

double
FaultInjector::rateScale(std::uint64_t subarray_id) const
{
    if (params_.weakSubarrayFraction <= 0.0)
        return 1.0;
    std::uint64_t h = locHash(subarray_id, 0x5ca1ab1e);
    return hashFrac(h) < params_.weakSubarrayFraction
        ? params_.weakSubarrayScale
        : 1.0;
}

FaultEvent
FaultInjector::drawOperandFault(std::uint64_t subarray_id)
{
    FaultEvent ev;
    if (!enabled())
        return ev;
    double p = params_.transientPerBlockOp * rateScale(subarray_id);
    if (p <= 0.0 || !rng_.chance(std::min(p, 1.0)))
        return ev;

    ++transients_;
    double r = rng_.uniform();
    if (r < params_.burstFraction) {
        // Three adjacent flips within one word: odd flip count aliases
        // to a SECDED "single-bit" syndrome and miscorrects.
        ev.kind = FaultKind::TransientBurst;
        ev.nbits = 3;
        unsigned word = static_cast<unsigned>(rng_.below(kWordsPerBlock));
        unsigned base = static_cast<unsigned>(rng_.below(62));
        for (unsigned i = 0; i < 3; ++i)
            ev.bits[i] = word * 64 + base + i;
    } else if (r < params_.burstFraction + params_.doubleBitFraction) {
        ev.kind = FaultKind::TransientDouble;
        ev.nbits = 2;
        unsigned word = static_cast<unsigned>(rng_.below(kWordsPerBlock));
        unsigned b1 = static_cast<unsigned>(rng_.below(64));
        unsigned b2 = static_cast<unsigned>(rng_.below(63));
        if (b2 >= b1)
            ++b2;
        ev.bits[0] = word * 64 + b1;
        ev.bits[1] = word * 64 + b2;
    } else {
        ev.kind = FaultKind::TransientSingle;
        ev.nbits = 1;
        ev.bits[0] = static_cast<unsigned>(rng_.below(kBlockBits));
    }
    return ev;
}

bool
FaultInjector::drawMarginFailure(std::uint64_t subarray_id)
{
    if (!enabled())
        return false;
    double p = params_.marginFailPerDualRowOp * rateScale(subarray_id);
    if (p <= 0.0 || !rng_.chance(std::min(p, 1.0)))
        return false;
    ++marginFails_;
    return true;
}

FaultEvent
FaultInjector::stuckAtFault(std::uint64_t subarray_id, Addr addr) const
{
    FaultEvent ev;
    if (!enabled() || params_.stuckAtPerBlock <= 0.0 || isRemapped(addr))
        return ev;
    std::uint64_t h = locHash(subarray_id, addr);
    double p = params_.stuckAtPerBlock * rateScale(subarray_id);
    if (hashFrac(h) >= std::min(p, 1.0))
        return ev;

    // Model stuck-at-wrong-value: the defect always manifests as a flip
    // of the stored bit (conservative relative to value-dependent
    // stuck-at, and independent of data content).
    ev.kind = FaultKind::StuckAt;
    std::uint64_t h2 = mix64(h);
    ev.bits[0] = static_cast<unsigned>(h2 % kBlockBits);
    ev.nbits = 1;
    if (hashFrac(mix64(h2)) < params_.stuckAtDoubleFraction) {
        // Second defective cell in the same word: uncorrectable until
        // the line is discarded and remapped.
        unsigned word = ev.bits[0] / 64;
        unsigned other = static_cast<unsigned>(mix64(h2 + 1) % 63);
        if (other >= ev.bits[0] % 64)
            ++other;
        ev.bits[1] = word * 64 + other;
        ev.nbits = 2;
    }
    return ev;
}

void
FaultInjector::remap(Addr addr)
{
    remapped_.insert(addr);
}

bool
FaultInjector::isRemapped(Addr addr) const
{
    return remapped_.count(addr) != 0;
}

void
FaultInjector::corrupt(Block &block, const FaultEvent &event)
{
    for (unsigned i = 0; i < event.nbits; ++i) {
        unsigned bit = event.bits[i];
        block[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }
}

void
FaultInjector::noteResident(Addr addr)
{
    if (!enabled())
        return;
    if (residentSet_.insert(addr).second)
        residents_.push_back(addr);
}

void
FaultInjector::backgroundTick()
{
    if (!enabled() || params_.backgroundUpsetPerInstr <= 0.0 ||
        residents_.empty()) {
        return;
    }
    if (!rng_.chance(std::min(params_.backgroundUpsetPerInstr, 1.0)))
        return;

    ++upsets_;
    Addr victim = residents_[rng_.below(residents_.size())];
    FaultEvent &ev = latent_[victim];
    if (ev.nbits >= 3)
        return;  // already a worst-case burst

    // Upsets accumulate until scrubbed: a second strike on the same
    // word escalates a correctable error into an uncorrectable one --
    // the exposure window Section IV-I's scrubbing alternative bounds.
    unsigned bit;
    if (ev.nbits == 0) {
        bit = static_cast<unsigned>(rng_.below(kBlockBits));
    } else {
        unsigned word = ev.bits[0] / 64;
        bit = word * 64 + static_cast<unsigned>(rng_.below(64));
        for (unsigned i = 0; i < ev.nbits; ++i) {
            if (ev.bits[i] == bit)
                return;  // same cell struck twice: no net change
        }
    }
    ev.bits[ev.nbits++] = bit;
    ev.kind = ev.nbits == 1 ? FaultKind::TransientSingle
            : ev.nbits == 2 ? FaultKind::TransientDouble
                            : FaultKind::TransientBurst;
}

const FaultEvent *
FaultInjector::latentAt(Addr addr) const
{
    auto it = latent_.find(addr);
    return it == latent_.end() ? nullptr : &it->second;
}

void
FaultInjector::applyLatent(Addr addr, Block &block) const
{
    if (const FaultEvent *ev = latentAt(addr))
        corrupt(block, *ev);
}

void
FaultInjector::clearLatent(Addr addr)
{
    latent_.erase(addr);
}

std::vector<FaultInjector::ScrubVisit>
FaultInjector::scrubVisit(std::size_t max_blocks, std::size_t *visited)
{
    std::vector<ScrubVisit> hits;
    std::size_t n = std::min(max_blocks, residents_.size());
    for (std::size_t i = 0; i < n; ++i) {
        Addr addr = residents_[scrubCursor_];
        scrubCursor_ = (scrubCursor_ + 1) % residents_.size();
        if (const FaultEvent *ev = latentAt(addr))
            hits.push_back({addr, *ev});
    }
    if (visited)
        *visited = n;
    return hits;
}

} // namespace ccache::fault
