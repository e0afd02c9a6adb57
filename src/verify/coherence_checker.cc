#include "verify/coherence_checker.hh"

#include <algorithm>
#include <cstdio>

#include "common/bit_util.hh"
#include "common/json.hh"
#include "common/logging.hh"

namespace ccache::verify {

namespace {

/** Violations detailed in one SimError diagnostic. */
constexpr std::size_t kMaxViolationsReported = 8;

std::string
hexAddr(Addr addr)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%llx",
                  static_cast<unsigned long long>(addr));
    return buf;
}

} // namespace

CoherenceChecker::CoherenceChecker(cache::Hierarchy &hier,
                                   const CoherenceCheckerParams &params)
    : hier_(hier), params_(params)
{
}

void
CoherenceChecker::auditAddrInto(Addr addr,
                                std::vector<CoherenceViolation> &out)
{
    addr = alignDown(addr, kBlockSize);
    PrivateStates priv;
    for (unsigned c = 0; c < cache::Hierarchy::kCores; ++c) {
        priv.l1[c] = hier_.l1(c).state(addr);
        priv.l2[c] = hier_.l2(c).state(addr);
    }
    checkBlock(addr, priv, out);
}

void
CoherenceChecker::checkBlock(Addr addr, const PrivateStates &priv,
                             std::vector<CoherenceViolation> &out)
{
    constexpr unsigned kCores = cache::Hierarchy::kCores;
    unsigned writable_cores = 0;
    unsigned valid_cores = 0;
    CoreId writer = 0;

    for (unsigned c = 0; c < kCores; ++c) {
        cache::Mesi s1 = priv.l1[c];
        cache::Mesi s2 = priv.l2[c];

        if (cache::valid(s1) || cache::valid(s2))
            ++valid_cores;
        if (cache::writable(s1) || cache::writable(s2)) {
            ++writable_cores;
            writer = c;
        }

        if (cache::valid(s1) && !cache::valid(s2))
            out.push_back({"inclusion.l1_l2", addr,
                           "core " + std::to_string(c) + " holds " +
                               toString(s1) + " in L1 but L2 lost the line"});
    }

    if (writable_cores > 1)
        out.push_back({"swmr", addr,
                       std::to_string(writable_cores) +
                           " cores hold writable (E/M) copies"});
    if (writable_cores == 1 && valid_cores > 1)
        out.push_back({"swmr.m_plus_s", addr,
                       "core " + std::to_string(writer) +
                           " holds a writable copy while " +
                           std::to_string(valid_cores - 1) +
                           " other core(s) hold valid copies"});

    auto home = hier_.homeSliceIfMapped(addr);
    if (!home) {
        // Every fill path maps the page before a private copy can
        // exist, so valid copies of an unmapped page are impossible.
        if (valid_cores > 0)
            out.push_back({"inclusion.unmapped_page", addr,
                           std::to_string(valid_cores) +
                               " core(s) hold copies of an unmapped page"});
        return;
    }
    unsigned slice = *home;
    bool resident = hier_.l3Slice(slice).contains(addr);

    cache::DirEntry e = hier_.directory(slice).entry(addr);
    for (unsigned c = 0; c < kCores; ++c) {
        cache::Mesi s1 = priv.l1[c];
        cache::Mesi s2 = priv.l2[c];
        if (!cache::valid(s1) && !cache::valid(s2))
            continue;
        if (cache::valid(s2) && !resident)
            out.push_back({"inclusion.l2_l3", addr,
                           "core " + std::to_string(c) +
                               " holds a valid L2 copy but home slice " +
                               std::to_string(slice) + " lost the line"});
        if (!(e.sharers & (1u << c)))
            out.push_back({"dir.missing_sharer", addr,
                           "core " + std::to_string(c) +
                               " holds a real copy (L1 " + toString(s1) +
                               ", L2 " + toString(s2) +
                               ") but its sharer bit is clear at slice " +
                               std::to_string(slice)});
    }
    if (writable_cores == 1 && (!e.owner || *e.owner != writer))
        out.push_back({"dir.owner_mismatch", addr,
                       "core " + std::to_string(writer) +
                           " holds the writable copy but the directory " +
                           (e.owner ? "records owner " +
                                std::to_string(*e.owner)
                                    : std::string("records no owner"))});
    if ((e.hasSharers() || e.owner) && !resident)
        out.push_back({"dir.not_resident", addr,
                       "directory at slice " + std::to_string(slice) +
                           " tracks the block but the inclusive slice "
                           "does not hold it"});
}

std::vector<CoherenceViolation>
CoherenceChecker::auditAddr(Addr addr)
{
    std::vector<CoherenceViolation> out;
    auditAddrInto(addr, out);
    return out;
}

std::vector<CoherenceViolation>
CoherenceChecker::auditAll()
{
    // The reachable state is the union of all private lines and all
    // directory entries; an L3 line with neither is unconstrained. One
    // walk over each private cache records its lines' states, and each
    // directory entry records its address with no copy. Sorted by
    // address, a block's records are its private states, so blocks are
    // checked without probing a private cache, in address order for
    // reproducible diagnostics.
    struct Copy
    {
        Addr addr;
        unsigned core;
        bool inL2;
        cache::Mesi state;   ///< Invalid: a directory entry
    };
    std::vector<Copy> copies;
    for (unsigned c = 0; c < cache::Hierarchy::kCores; ++c) {
        hier_.l1(c).forEachLine(
            [&](Addr a, cache::Mesi s, bool, const Block &) {
                copies.push_back({a, c, false, s});
            });
        hier_.l2(c).forEachLine(
            [&](Addr a, cache::Mesi s, bool, const Block &) {
                copies.push_back({a, c, true, s});
            });
    }
    for (unsigned s = 0; s < noc::Ring::kNodes; ++s)
        hier_.directory(s).forEachEntry(
            [&](Addr a, const cache::DirEntry &) {
                copies.push_back({a, 0, false, cache::Mesi::Invalid});
            });
    std::sort(copies.begin(), copies.end(),
              [](const Copy &x, const Copy &y) { return x.addr < y.addr; });

    std::vector<CoherenceViolation> out;
    PrivateStates priv;
    for (std::size_t i = 0; i < copies.size();) {
        const Addr addr = copies[i].addr;
        priv.l1.fill(cache::Mesi::Invalid);
        priv.l2.fill(cache::Mesi::Invalid);
        for (; i < copies.size() && copies[i].addr == addr; ++i) {
            const Copy &cp = copies[i];
            if (!cache::valid(cp.state))
                continue;
            // Two stores, not one through a selected array: GCC 12 with
            // -fsanitize=undefined miscompiles the latter.
            if (cp.inL2)
                priv.l2[cp.core] = cp.state;
            else
                priv.l1[cp.core] = cp.state;
        }
        checkBlock(addr, priv, out);
    }
    return out;
}

void
CoherenceChecker::onTransaction(Addr addr)
{
    ++checks_;

    std::vector<CoherenceViolation> v;
    auditAddrInto(addr, v);
    if (v.empty() && params_.auditInterval &&
        checks_ % params_.auditInterval == 0) {
        ++fullAudits_;
        v = auditAll();
    }
    if (!v.empty())
        raise(v);
}

void
CoherenceChecker::checkNow()
{
    ++checks_;
    ++fullAudits_;
    std::vector<CoherenceViolation> v = auditAll();
    if (!v.empty())
        raise(v);
}

void
CoherenceChecker::raise(const std::vector<CoherenceViolation> &v)
{
    Json d = Json::object();
    d["coherence_violations"] = static_cast<std::uint64_t>(v.size());
    Json list = Json::array();
    std::size_t reported =
        std::min(v.size(), kMaxViolationsReported);
    for (std::size_t i = 0; i < reported; ++i) {
        Json one = Json::object();
        one["invariant"] = v[i].invariant;
        one["addr"] = hexAddr(v[i].addr);
        one["detail"] = v[i].detail;
        list.push(std::move(one));
    }
    d["violations"] = std::move(list);

    const CoherenceViolation &first = v.front();
    throw SimError("coherence violation: " + first.invariant + " at " +
                       hexAddr(first.addr) + " (" + first.detail + ")" +
                       (v.size() > 1 ? ", +" + std::to_string(v.size() - 1) +
                            " more"
                                     : ""),
                   d.dump(2));
}

} // namespace ccache::verify
